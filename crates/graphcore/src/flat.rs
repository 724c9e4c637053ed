//! Flat little-endian arrays through `serde`: the module behind
//! `#[serde(with = "graphcore::flat")]`.
//!
//! A derived `Vec<u32>` goes through a `serde` format one element at a
//! time — a visitor call and a bounds check per entry, which for an index
//! image that is all but a few hundred bytes such arrays was the whole cost
//! of loading it. A field marked with this module is instead written as
//! *one* `serialize_bytes` call: the format's length prefix counts bytes,
//! and the payload is the elements little-endian, back to back. It is read
//! back from one `visit_bytes` call by a loop the compiler turns into a
//! copy on a little-endian host, and that reads the same bytes on any
//! other. The image is as long as the per-element one (a `u64` prefix
//! either way under `pagestore::codec`); only the prefix changes meaning,
//! so an image of one kind does not decode as the other.

use serde::de::{self, Deserializer, Visitor};
use serde::ser::Serializer;
use std::fmt;
use std::marker::PhantomData;

/// An array element with a fixed-width little-endian image: a `u32`, or a
/// pair of them (an edge, a `(node, distance)` label entry).
pub trait Element: Copy {
    /// Bytes in one element's image.
    const WIDTH: usize;
    /// Writes the element's image into `out`, which is `WIDTH` bytes long.
    fn put(self, out: &mut [u8]);
    /// Reads an element from its image, which is `WIDTH` bytes long.
    fn get(image: &[u8]) -> Self;
}

impl Element for u32 {
    const WIDTH: usize = 4;

    fn put(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn get(image: &[u8]) -> Self {
        u32::from_le_bytes([image[0], image[1], image[2], image[3]])
    }
}

impl Element for (u32, u32) {
    const WIDTH: usize = 8;

    fn put(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.0.to_le_bytes());
        out[4..].copy_from_slice(&self.1.to_le_bytes());
    }

    fn get(image: &[u8]) -> Self {
        (
            u32::from_le_bytes([image[0], image[1], image[2], image[3]]),
            u32::from_le_bytes([image[4], image[5], image[6], image[7]]),
        )
    }
}

/// Writes `array` as one byte string: its elements' images back to back.
pub fn serialize<E: Element, S: Serializer>(array: &[E], serializer: S) -> Result<S::Ok, S::Error> {
    let mut image = vec![0u8; array.len() * E::WIDTH];
    for (out, &element) in image.chunks_exact_mut(E::WIDTH).zip(array) {
        element.put(out);
    }
    serializer.serialize_bytes(&image)
}

/// Reads an array written by [`serialize`].
///
/// # Errors
/// If the byte string does not hold a whole number of elements; a length
/// prefix past the end of the input is the format's error, raised before
/// anything is allocated.
pub fn deserialize<'de, E: Element, D: Deserializer<'de>>(
    deserializer: D,
) -> Result<Vec<E>, D::Error> {
    struct Elements<E>(PhantomData<E>);

    impl<'de, E: Element> Visitor<'de> for Elements<E> {
        type Value = Vec<E>;

        fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "a byte string of whole {}-byte elements", E::WIDTH)
        }

        fn visit_bytes<Err: de::Error>(self, image: &[u8]) -> Result<Vec<E>, Err> {
            if image.len() % E::WIDTH != 0 {
                return Err(Err::custom(format_args!(
                    "a flat array of {} bytes is not whole {}-byte elements",
                    image.len(),
                    E::WIDTH
                )));
            }
            Ok(image.chunks_exact(E::WIDTH).map(E::get).collect())
        }
    }

    deserializer.deserialize_bytes(Elements(PhantomData))
}
