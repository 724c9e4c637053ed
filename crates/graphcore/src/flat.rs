//! Packed little-endian arrays through `serde`: the module behind
//! `#[serde(with = "graphcore::flat")]`.
//!
//! A derived `Vec<u32>` goes through a `serde` format one element at a
//! time — a visitor call and a bounds check per entry, which for an index
//! image that is all but a few hundred bytes such arrays was the whole cost
//! of loading it. A field marked with this module is instead written as
//! *one* `serialize_bytes` call, whose bytes are:
//!
//! * the element count, a little-endian `u32`;
//! * one width byte per lane — a `u32` array has one lane, a `(u32, u32)`
//!   array two (a label entry's node and distance, an edge's source and
//!   target);
//! * each lane in turn, its values packed little-endian at its width, the
//!   bits of its largest value (at least 1, at most 32): value `i` of a
//!   lane of width `w` is bits `i·w .. (i + 1)·w` of the lane's
//!   `ceil(count·w / 8)` bytes.
//!
//! An index holds node ids, distances and row offsets far below 2^32, so
//! its image holds the bits they need, not four bytes each; element `i` of
//! a lane still sits at a fixed bit, so a reader can go straight to it.
//! Eight values at width `w` are exactly `w` bytes: a lane is read eight
//! values at a time by one loop per width, the `match` in `unpack`, and
//! its last `count mod 8` values one at a time.

use serde::de::{self, Deserializer, Visitor};
use serde::ser::{self, Serializer};
use std::fmt;
use std::marker::PhantomData;

/// An array element made of `u32` lanes: a `u32`, or a pair of them (an
/// edge, a `(node, distance)` label entry). Each lane is packed at its own
/// width.
pub trait Element: Copy + Default {
    /// Lanes in one element.
    const LANES: usize;
    /// The element's lane `lane`, below [`Self::LANES`].
    fn lane(self, lane: usize) -> u32;
    /// Sets the element's lane `lane` to `value`.
    fn set_lane(&mut self, lane: usize, value: u32);
}

impl Element for u32 {
    const LANES: usize = 1;

    fn lane(self, _lane: usize) -> u32 {
        self
    }

    fn set_lane(&mut self, _lane: usize, value: u32) {
        *self = value;
    }
}

impl Element for (u32, u32) {
    const LANES: usize = 2;

    fn lane(self, lane: usize) -> u32 {
        if lane == 0 {
            self.0
        } else {
            self.1
        }
    }

    fn set_lane(&mut self, lane: usize, value: u32) {
        if lane == 0 {
            self.0 = value;
        } else {
            self.1 = value;
        }
    }
}

/// The width a lane whose largest value is `max` is packed at.
fn width(max: u32) -> u8 {
    // At most 32: the cast cannot truncate.
    (u32::BITS - max.leading_zeros()).max(1) as u8
}

/// Bytes a lane of `count` values at `width` bits packs into.
fn lane_bytes(count: u64, width: u8) -> u64 {
    (count * u64::from(width)).div_ceil(8)
}

/// Appends `values` to `out`, `width` bits each, little-endian.
fn pack(values: impl Iterator<Item = u32>, width: u8, out: &mut Vec<u8>) {
    // Fewer than 32 bits wait in `pending` between values, so a value
    // shifted past them fits in 64.
    let (mut pending, mut bits) = (0u64, 0u32);
    for value in values {
        pending |= u64::from(value) << bits;
        bits += u32::from(width);
        if bits >= 32 {
            out.extend_from_slice(&pending.to_le_bytes()[..4]);
            pending >>= 32;
            bits -= 32;
        }
    }
    out.extend_from_slice(&pending.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// The `width`-bit value at bit `bit` of `bytes`. With `width` a constant
/// and `bit` one after unrolling, this is a fixed load, shift and mask.
#[inline(always)]
fn read(bytes: &[u8], bit: usize, width: usize) -> u32 {
    let (start, end) = (bit / 8, (bit + width).div_ceil(8));
    // `bit % 8 + width` is at most 39 bits: five bytes.
    let mut word = [0u8; 8];
    word[..end - start].copy_from_slice(&bytes[start..end]);
    let value = (u64::from_le_bytes(word) >> (bit % 8)) & ((1 << width) - 1);
    // Masked to `width` ≤ 32 bits: the cast cannot truncate.
    value as u32
}

/// Unpacks the lane `lane` of `out` from `packed`, at `W` bits a value:
/// eight values from each `W` bytes, then the rest one by one.
fn unpack_at<E: Element, const W: usize>(packed: &[u8], lane: usize, out: &mut [E]) {
    let mut groups = out.chunks_exact_mut(8);
    for (group, bytes) in (&mut groups).zip(packed.chunks_exact(W)) {
        for (i, element) in group.iter_mut().enumerate() {
            element.set_lane(lane, read(bytes, i * W, W));
        }
    }
    let rest = groups.into_remainder();
    let tail = &packed[packed.len() - (rest.len() * W).div_ceil(8)..];
    for (i, element) in rest.iter_mut().enumerate() {
        element.set_lane(lane, read(tail, i * W, W));
    }
}

/// Unpacks the lane `lane` of `out` from `packed`, which is exactly the
/// `ceil(out.len()·width / 8)` bytes of a lane at `width` in `1..=32`.
fn unpack<E: Element>(packed: &[u8], width: u8, lane: usize, out: &mut [E]) {
    macro_rules! at_width {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_at::<E, $w>(packed, lane, out),)*
                _ => unreachable!("lane width {width} was checked to be in 1..=32"),
            }
        };
    }
    at_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
}

/// Writes `array` as one byte string: its count, its lanes' widths and its
/// lanes packed at them.
///
/// # Errors
/// If `array` holds `2^32` elements or more.
pub fn serialize<E: Element, S: Serializer>(array: &[E], serializer: S) -> Result<S::Ok, S::Error> {
    let count = u32::try_from(array.len()).map_err(|_| {
        ser::Error::custom(format_args!(
            "a flat array of {} elements is past the u32 count",
            array.len()
        ))
    })?;
    let values = |lane| array.iter().map(move |e| e.lane(lane));
    let widths: Vec<u8> = (0..E::LANES)
        .map(|lane| width(values(lane).max().unwrap_or(0)))
        .collect();
    let packed: u64 = widths
        .iter()
        .map(|&w| lane_bytes(u64::from(count), w))
        .sum();
    let mut image = Vec::with_capacity(4 + E::LANES + usize::try_from(packed).unwrap_or(0));
    image.extend_from_slice(&count.to_le_bytes());
    image.extend_from_slice(&widths);
    for (lane, &w) in widths.iter().enumerate() {
        pack(values(lane), w, &mut image);
    }
    serializer.serialize_bytes(&image)
}

/// Reads an array written by [`serialize`].
///
/// # Errors
/// If the byte string is too short for the count and the widths, a width
/// is outside `1..=32`, or the packed lanes are not exactly the
/// `Σ ceil(count·w / 8)` bytes their widths say. All of it is checked
/// before the array is allocated; since every width is at least 1, a count
/// that passes is at most eight times the bytes behind it. A length prefix
/// past the end of the input is the format's error, raised before anything
/// is read.
pub fn deserialize<'de, E: Element, D: Deserializer<'de>>(
    deserializer: D,
) -> Result<Vec<E>, D::Error> {
    struct Elements<E>(PhantomData<E>);

    impl<'de, E: Element> Visitor<'de> for Elements<E> {
        type Value = Vec<E>;

        fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "a packed array of {}-lane elements", E::LANES)
        }

        fn visit_bytes<Err: de::Error>(self, image: &[u8]) -> Result<Vec<E>, Err> {
            if image.len() < 4 + E::LANES {
                return Err(Err::custom(format_args!(
                    "a flat array of {} bytes holds no count and {} lane widths",
                    image.len(),
                    E::LANES
                )));
            }
            let (head, packed) = image.split_at(4 + E::LANES);
            let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            let widths = &head[4..];
            if let Some(&w) = widths.iter().find(|&&w| !(1..=32).contains(&w)) {
                return Err(Err::custom(format_args!(
                    "a flat array lane of width {w} is outside 1..=32"
                )));
            }
            let want: u64 = (widths.iter())
                .map(|&w| lane_bytes(u64::from(count), w))
                .sum();
            if want != packed.len() as u64 {
                return Err(Err::custom(format_args!(
                    "{count} elements at widths {widths:?} pack into {want} bytes, not {}",
                    packed.len()
                )));
            }
            let mut array = vec![E::default(); count as usize];
            let mut rest = packed;
            for (lane, &w) in widths.iter().enumerate() {
                // At most `packed.len()`, as the sum above checked.
                let (bytes, next) = rest.split_at(lane_bytes(u64::from(count), w) as usize);
                unpack(bytes, w, lane, &mut array);
                rest = next;
            }
            Ok(array)
        }
    }

    deserializer.deserialize_bytes(Elements(PhantomData))
}
