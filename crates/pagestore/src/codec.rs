//! A compact, non-self-describing binary codec for `serde` types.
//!
//! Index images (HOPI label sets, PPO number tables, APEX summaries) are
//! persisted into the blob store through this codec. The format is
//! bincode-like: fixed little-endian primitives, `u64` lengths for
//! sequences/strings/maps, one tag byte for `Option`, and a `u32` variant
//! index for enums. It is intentionally not self-describing — readers must
//! know the type, exactly like a database row codec. A byte string
//! (`serialize_bytes`) is its length in bytes and then the bytes, which is
//! how the `u32`-shaped arrays of an index image travel: a field marked
//! `#[serde(with = "graphcore::flat")]` is one byte string — an element
//! count, a width byte per lane and the lanes packed at the bits of their
//! largest values — not a sequence of elements, so its prefix counts bytes.
//! The codec neither knows nor checks what is inside a byte string; the
//! `with` module does, and its errors come back as [`CodecError`]s.

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

/// Serialises `value` into bytes.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.serialize(&mut BinSerializer { out: &mut out })?;
    Ok(out)
}

/// Deserialises a value previously produced by [`to_bytes`].
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut de = BinDeserializer { input: bytes };
    let v = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after value",
            de.input.len()
        )));
    }
    Ok(v)
}

struct BinSerializer<'o> {
    out: &'o mut Vec<u8>,
}

macro_rules! ser_num {
    ($fn:ident, $ty:ty) => {
        fn $fn(self, v: $ty) -> Result<(), CodecError> {
            self.out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl<'a, 'o> ser::Serializer for &'a mut BinSerializer<'o> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.push(v as u8);
        Ok(())
    }

    ser_num!(serialize_i8, i8);
    ser_num!(serialize_i16, i16);
    ser_num!(serialize_i32, i32);
    ser_num!(serialize_i64, i64);
    ser_num!(serialize_u8, u8);
    ser_num!(serialize_u16, u16);
    ser_num!(serialize_u32, u32);
    ser_num!(serialize_u64, u64);
    ser_num!(serialize_f32, f32);
    ser_num!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.serialize_bytes(v.as_bytes())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.out.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.push(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError("sequences need a known length".into()))?;
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.out.extend_from_slice(&variant_index.to_le_bytes());
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError("maps need a known length".into()))?;
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.out.extend_from_slice(&variant_index.to_le_bytes());
        Ok(self)
    }
}

macro_rules! ser_compound {
    ($trait:path, $method:ident) => {
        impl<'a, 'o> $trait for &'a mut BinSerializer<'o> {
            type Ok = ();
            type Error = CodecError;

            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }

            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

ser_compound!(ser::SerializeSeq, serialize_element);
ser_compound!(ser::SerializeTuple, serialize_element);
ser_compound!(ser::SerializeTupleStruct, serialize_field);
ser_compound!(ser::SerializeTupleVariant, serialize_field);

impl<'a, 'o> ser::SerializeMap for &'a mut BinSerializer<'o> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut **self)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl<'a, 'o> ser::SerializeStruct for &'a mut BinSerializer<'o> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl<'a, 'o> ser::SerializeStructVariant for &'a mut BinSerializer<'o> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct BinDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> BinDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError(format!(
                "unexpected end of input: need {n}, have {}",
                self.input.len()
            )));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        let b = self.take(8)?;
        // flixcheck: allow(unwrap-expect): take(8) returned exactly 8 bytes
        let len = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        usize::try_from(len).map_err(|_| CodecError("length overflows usize".into()))
    }
}

macro_rules! de_num {
    ($fn:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $fn<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let b = self.take($n)?;
            // flixcheck: allow(unwrap-expect): take($n) returned exactly the bytes the type holds
            visitor.$visit(<$ty>::from_le_bytes(b.try_into().expect("sized")))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut BinDeserializer<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("format is not self-describing".into()))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(CodecError(format!("invalid bool byte {b}"))),
        }
    }

    de_num!(deserialize_i8, visit_i8, i8, 1);
    de_num!(deserialize_i16, visit_i16, i16, 2);
    de_num!(deserialize_i32, visit_i32, i32, 4);
    de_num!(deserialize_i64, visit_i64, i64, 8);
    de_num!(deserialize_u8, visit_u8, u8, 1);
    de_num!(deserialize_u16, visit_u16, u16, 2);
    de_num!(deserialize_u32, visit_u32, u32, 4);
    de_num!(deserialize_u64, visit_u64, u64, 8);
    de_num!(deserialize_f32, visit_f32, f32, 4);
    de_num!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let b = self.take(4)?;
        // flixcheck: allow(unwrap-expect): take(4) returned exactly 4 bytes
        let code = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        visitor.visit_char(
            char::from_u32(code)
                .ok_or_else(|| CodecError(format!("invalid char code point {code:#x}")))?,
        )
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        visitor
            .visit_borrowed_str(std::str::from_utf8(bytes).map_err(|e| CodecError(e.to_string()))?)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(CodecError(format!("invalid option tag {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_map(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("identifiers are not encoded".into()))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError(
            "cannot skip values in a non-self-describing format".into(),
        ))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    left: usize,
}

impl<'a, 'de> de::SeqAccess<'de> for Counted<'a, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'a, 'de> de::MapAccess<'de> for Counted<'a, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), CodecError> {
        let b = self.de.take(4)?;
        // flixcheck: allow(unwrap-expect): take(4) returned exactly 4 bytes
        let idx = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        let value = seed.deserialize(idx.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'a, 'de> de::VariantAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::HashMap;

    fn round_trip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives() {
        round_trip(true);
        round_trip(42u8);
        round_trip(-7i64);
        round_trip(3.5f64);
        round_trip('ß');
        round_trip("hello codec".to_string());
        round_trip(Some(99u32));
        round_trip(Option::<u32>::None);
        round_trip(());
    }

    #[test]
    fn containers() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip((1u8, "two".to_string(), 3.0f32));
        let mut m = HashMap::new();
        m.insert("a".to_string(), vec![1u64, 2]);
        m.insert("b".to_string(), vec![]);
        round_trip(m);
        round_trip(vec![vec![(1u32, 2u32)], vec![], vec![(3, 4), (5, 6)]]);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Record {
        id: u32,
        name: String,
        tags: Vec<u16>,
        parent: Option<Box<Record>>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u8, u8),
        Struct { w: f32, h: f32 },
    }

    #[test]
    fn structs_and_enums() {
        round_trip(Record {
            id: 7,
            name: "root".into(),
            tags: vec![1, 2, 3],
            parent: Some(Box::new(Record {
                id: 1,
                name: "p".into(),
                tags: vec![],
                parent: None,
            })),
        });
        round_trip(Shape::Unit);
        round_trip(Shape::Newtype(5));
        round_trip(Shape::Tuple(1, 2));
        round_trip(Shape::Struct { w: 1.0, h: 2.0 });
        round_trip(vec![Shape::Unit, Shape::Newtype(9)]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&"long string here".to_string()).unwrap();
        assert!(from_bytes::<String>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn wrong_bool_byte_rejected() {
        assert!(from_bytes::<bool>(&[7]).is_err());
    }

    #[test]
    fn real_index_types_round_trip() {
        // the codec must handle the graph types the indexes persist
        let g = graphcore_digraph();
        let bytes = to_bytes(&g).unwrap();
        let back: TestDigraph = from_bytes(&bytes).unwrap();
        assert_eq!(g, back);
    }

    // Minimal stand-in for a CSR graph, to keep this crate decoupled from
    // graphcore (whose own arrays go through `graphcore::flat`; the
    // per-element sequences here are what every other `Vec` still is).
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct TestDigraph {
        fwd_off: Vec<u32>,
        fwd: Vec<u32>,
        rev_off: Vec<u32>,
        rev: Vec<u32>,
    }

    fn graphcore_digraph() -> TestDigraph {
        TestDigraph {
            fwd_off: vec![0, 2, 3, 3],
            fwd: vec![1, 2, 2],
            rev_off: vec![0, 0, 1, 3],
            rev: vec![0, 0, 1],
        }
    }
}
