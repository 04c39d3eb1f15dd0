//! Hand-written binary codec.
//!
//! All on-chain structures (transactions, blocks, index pages, VOs) are
//! encoded with this little-endian, length-prefixed format. The encoding
//! is canonical — a given structure has exactly one byte representation —
//! which matters because hashes and signatures are computed over these
//! bytes.

use crate::error::TypeError;
use crate::value::Value;

/// Sanity bound on any decoded length prefix (protects against garbage
/// input allocating gigabytes).
const MAX_LEN: u64 = 1 << 32;

/// Append-only byte sink with typed `put_*` helpers.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// New encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes raw bytes without a length prefix (fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_i64(*i);
            }
            Value::Decimal(d) => {
                self.put_u8(2);
                self.put_i64(*d);
            }
            Value::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            Value::Bool(b) => {
                self.put_u8(4);
                self.put_u8(*b as u8);
            }
            Value::Timestamp(t) => {
                self.put_u8(5);
                self.put_u64(*t);
            }
            Value::Bytes(b) => {
                self.put_u8(6);
                self.put_bytes(b);
            }
        }
    }

    /// Writes `v` in its order-preserving form, the one encoding whose
    /// byte order is [`Value`]'s order: `orderkey(a) < orderkey(b)`
    /// exactly when `a < b`. The type tag [`Self::put_value`] writes,
    /// then integers sign-flipped big-endian and strings / byte strings
    /// with every `0x00` escaped as `0x00 0x01` and a `0x00 0x00`
    /// terminator. No key is a prefix of another, so whatever bytes
    /// follow a key (a block id, a position) never reorder two
    /// different values — what lets an index keep `value ‖ pointer`
    /// keys in one sorted run.
    pub fn put_orderkey(&mut self, v: &Value) {
        let flip = |i: i64| (i as u64 ^ 1 << 63).to_be_bytes();
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_raw(&flip(*i));
            }
            Value::Decimal(d) => {
                self.put_u8(2);
                self.put_raw(&flip(*d));
            }
            Value::Str(s) => {
                self.put_u8(3);
                self.put_escaped(s.as_bytes());
            }
            Value::Bool(b) => {
                self.put_u8(4);
                self.put_u8(*b as u8);
            }
            Value::Timestamp(t) => {
                self.put_u8(5);
                self.put_raw(&t.to_be_bytes());
            }
            Value::Bytes(b) => {
                self.put_u8(6);
                self.put_escaped(b);
            }
        }
    }

    fn put_escaped(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.buf.push(b);
            if b == 0 {
                self.buf.push(1);
            }
        }
        self.buf.extend_from_slice(&[0, 0]);
    }

    /// Writes a slice of values with a count prefix.
    pub fn put_values(&mut self, vs: &[Value]) {
        self.put_u32(vs.len() as u32);
        for v in vs {
            self.put_value(v);
        }
    }
}

/// One attribute value still in its encoded form: the type tag and a
/// borrow of the payload bytes (a string's or byte string's length
/// prefix is the slice length). The encoding is canonical, so two
/// `RawValue`s are equal exactly when the [`Value`]s they decode to
/// are — which makes them hash-join keys that cost no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawValue<'a> {
    pub(crate) tag: u8,
    pub(crate) payload: &'a [u8],
}

impl RawValue<'_> {
    /// True for SQL `NULL` (tag 0).
    pub fn is_null(&self) -> bool {
        self.tag == 0
    }

    /// The decoded value: what [`Decoder::get_value`] returns for the
    /// bytes this was read from (a string's UTF-8 is checked here).
    pub fn value(&self) -> Result<Value, TypeError> {
        let word = || u64::from_le_bytes(self.payload.try_into().unwrap_or_default());
        Ok(match self.tag {
            0 => Value::Null,
            1 => Value::Int(word() as i64),
            2 => Value::Decimal(word() as i64),
            3 => Value::Str(
                std::str::from_utf8(self.payload)
                    .map_err(|_| TypeError::BadUtf8)?
                    .to_owned(),
            ),
            4 => Value::Bool(self.payload == [1]),
            5 => Value::Timestamp(word()),
            _ => Value::Bytes(self.payload.to_vec()),
        })
    }
}

/// Zero-copy cursor over encoded bytes with typed `get_*` helpers.
#[derive(Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all input is consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], TypeError> {
        if self.remaining() < n {
            return Err(TypeError::UnexpectedEof { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, TypeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, TypeError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, TypeError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn get_i64(&mut self, context: &'static str) -> Result<i64, TypeError> {
        let b = self.take(8, context)?;
        Ok(i64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], TypeError> {
        let len = self.get_u32(context)? as u64;
        if len > MAX_LEN {
            return Err(TypeError::LengthOverflow { len });
        }
        self.take(len as usize, context)
    }

    /// Reads `n` raw bytes (fixed-size fields).
    pub fn get_raw(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], TypeError> {
        self.take(n, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<&'a str, TypeError> {
        std::str::from_utf8(self.get_bytes(context)?).map_err(|_| TypeError::BadUtf8)
    }

    /// Reads a tagged [`Value`].
    pub fn get_value(&mut self) -> Result<Value, TypeError> {
        let tag = self.get_u8("value tag")?;
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Int(self.get_i64("int value")?),
            2 => Value::Decimal(self.get_i64("decimal value")?),
            3 => Value::Str(self.get_str("string value")?.to_owned()),
            4 => Value::Bool(self.get_u8("bool value")? != 0),
            5 => Value::Timestamp(self.get_u64("timestamp value")?),
            6 => Value::Bytes(self.get_bytes("bytes value")?.to_vec()),
            tag => {
                return Err(TypeError::BadTag {
                    context: "value",
                    tag,
                })
            }
        })
    }

    /// Reads a tagged value without decoding it: the tag and a borrow
    /// of the payload. Walks the same bytes as [`Self::get_value`] and
    /// fails on the same truncations and tags, but allocates nothing
    /// and does not check a string payload's UTF-8.
    pub fn get_raw_value(&mut self) -> Result<RawValue<'a>, TypeError> {
        let tag = self.get_u8("value tag")?;
        let payload: &'a [u8] = match tag {
            0 => &[],
            1 => self.take(8, "int value")?,
            2 => self.take(8, "decimal value")?,
            3 => self.get_bytes("string value")?,
            // `get_value` reads any non-zero byte as `true`; fold the
            // payload the same way so equal values have equal bytes.
            4 => match self.get_u8("bool value")? {
                0 => &[0],
                _ => &[1],
            },
            5 => self.take(8, "timestamp value")?,
            6 => self.get_bytes("bytes value")?,
            tag => {
                return Err(TypeError::BadTag {
                    context: "value",
                    tag,
                })
            }
        };
        Ok(RawValue { tag, payload })
    }

    /// Reads a value written by [`Encoder::put_orderkey`], leaving the
    /// cursor on the byte after it.
    pub fn get_orderkey(&mut self) -> Result<Value, TypeError> {
        let unflip = |u: u64| (u ^ 1 << 63) as i64;
        Ok(match self.get_u8("orderkey tag")? {
            0 => Value::Null,
            1 => Value::Int(unflip(self.get_be_u64("int orderkey")?)),
            2 => Value::Decimal(unflip(self.get_be_u64("decimal orderkey")?)),
            3 => Value::Str(
                String::from_utf8(self.get_escaped("string orderkey")?)
                    .map_err(|_| TypeError::BadUtf8)?,
            ),
            4 => Value::Bool(self.get_u8("bool orderkey")? != 0),
            5 => Value::Timestamp(self.get_be_u64("timestamp orderkey")?),
            6 => Value::Bytes(self.get_escaped("bytes orderkey")?),
            tag => {
                return Err(TypeError::BadTag {
                    context: "orderkey",
                    tag,
                })
            }
        })
    }

    fn get_be_u64(&mut self, context: &'static str) -> Result<u64, TypeError> {
        let b = self.take(8, context)?;
        Ok(u64::from_be_bytes(b.try_into().unwrap()))
    }

    fn get_escaped(&mut self, context: &'static str) -> Result<Vec<u8>, TypeError> {
        let mut out = Vec::new();
        loop {
            match self.get_u8(context)? {
                0 => match self.get_u8(context)? {
                    0 => return Ok(out),
                    1 => out.push(0),
                    tag => return Err(TypeError::BadTag { context, tag }),
                },
                b => out.push(b),
            }
        }
    }

    /// Steps over one tagged value.
    pub fn skip_value(&mut self) -> Result<(), TypeError> {
        self.get_raw_value().map(drop)
    }

    /// Reads a count-prefixed slice of values onto the end of `out`
    /// (which holds a prefix of them on failure).
    pub fn get_values_into(&mut self, out: &mut Vec<Value>) -> Result<(), TypeError> {
        let n = self.get_u32("value count")? as usize;
        if n as u64 > MAX_LEN {
            return Err(TypeError::LengthOverflow { len: n as u64 });
        }
        out.reserve(n.min(1024));
        for _ in 0..n {
            out.push(self.get_value()?);
        }
        Ok(())
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), TypeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(TypeError::SchemaMismatch {
                detail: format!("{n} trailing bytes after decode"),
            }),
        }
    }
}

/// Trait for structures with a canonical binary form.
pub trait Codec: Sized {
    /// Appends this structure's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes one structure from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, TypeError>;

    /// Encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decodes from a complete byte slice, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> Result<Self, TypeError> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitive_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(1234);
        e.put_u64(u64::MAX);
        e.put_i64(-5);
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8("t").unwrap(), 7);
        assert_eq!(d.get_u32("t").unwrap(), 1234);
        assert_eq!(d.get_u64("t").unwrap(), u64::MAX);
        assert_eq!(d.get_i64("t").unwrap(), -5);
        assert_eq!(d.get_str("t").unwrap(), "héllo");
        assert_eq!(d.get_bytes("t").unwrap(), &[1, 2, 3]);
        assert!(d.is_exhausted());
    }

    #[test]
    fn eof_errors() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(
            d.get_u64("len"),
            Err(TypeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_value_tag() {
        let mut d = Decoder::new(&[99]);
        assert!(matches!(d.get_value(), Err(TypeError::BadTag { .. })));
    }

    #[test]
    fn truncated_string() {
        let mut e = Encoder::new();
        e.put_str("hello world");
        let mut buf = e.finish();
        buf.truncate(6);
        let mut d = Decoder::new(&buf);
        assert!(d.get_str("s").is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<i64>().prop_map(Value::Decimal),
            ".{0,40}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(Value::Timestamp),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        ]
    }

    /// Values that crowd each other in key order: integer extremes and
    /// neighbours of zero, and short strings / byte strings over an
    /// alphabet of the escape byte, its escape, a plain byte and the
    /// highest one — so prefixes, embedded zeros and ties are common.
    fn arb_order_value() -> impl Strategy<Value = Value> {
        use proptest::collection::vec;
        use proptest::prop::sample::select;
        let ints = || {
            prop_oneof![
                any::<i64>(),
                select(vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]),
            ]
        };
        prop_oneof![
            arb_value(),
            ints().prop_map(Value::Int),
            ints().prop_map(Value::Decimal),
            select(vec![0, 1, 1 << 63, u64::MAX]).prop_map(Value::Timestamp),
            vec(
                select(vec!['\0', '\u{1}', 'a', '\u{ff}', '\u{10ffff}']),
                0..4
            )
            .prop_map(|cs| Value::Str(cs.into_iter().collect())),
            vec(select(vec![0x00u8, 0x01, 0x61, 0xff]), 0..4).prop_map(Value::Bytes),
        ]
    }

    fn orderkey(v: &Value) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_orderkey(v);
        e.finish()
    }

    proptest! {
        #[test]
        fn value_roundtrip(v in arb_value()) {
            let mut e = Encoder::new();
            e.put_value(&v);
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            prop_assert_eq!(d.get_value().unwrap(), v);
            prop_assert!(d.is_exhausted());
        }

        #[test]
        fn values_roundtrip(vs in proptest::collection::vec(arb_value(), 0..20)) {
            let mut e = Encoder::new();
            e.put_values(&vs);
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            let mut got = Vec::new();
            d.get_values_into(&mut got).unwrap();
            prop_assert_eq!(got, vs);
        }

        #[test]
        fn orderkey_order_is_value_order(
            a in arb_order_value(),
            b in arb_order_value(),
            tail_a in proptest::collection::vec(any::<u8>(), 0..13),
            tail_b in proptest::collection::vec(any::<u8>(), 0..13),
        ) {
            let (ka, kb) = (orderkey(&a), orderkey(&b));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            // Whatever follows the key, two different values keep their
            // order (and one value's keys order by what follows).
            let with = |k: &[u8], tail: &[u8]| [k, tail].concat();
            let want = a.cmp(&b).then_with(|| tail_a.cmp(&tail_b));
            prop_assert_eq!(with(&ka, &tail_a).cmp(&with(&kb, &tail_b)), want);
            // And it decodes, stopping where the suffix starts.
            let framed = with(&ka, &tail_a);
            let mut d = Decoder::new(&framed);
            prop_assert_eq!(d.get_orderkey().unwrap(), a);
            prop_assert_eq!(d.remaining(), tail_a.len());
        }

        #[test]
        fn orderkey_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Decoder::new(&bytes).get_orderkey();
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Whatever the input, decoding must return, not panic.
            let mut d = Decoder::new(&bytes);
            let _ = d.get_values_into(&mut Vec::new());
        }
    }
}
