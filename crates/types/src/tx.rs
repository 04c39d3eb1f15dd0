//! Transactions: tuples with system- and application-level attributes.
//!
//! A transaction (§IV-A) carries `Tid` (assigned by the ordering
//! service, globally incremental), `Ts` (client send time), `Sig`
//! (unforgeability), `SenID` (sender identity) and `Tname` (transaction
//! type = table name), followed by the user-defined application
//! attributes.

use crate::codec::{Codec, Decoder, Encoder, RawValue};
use crate::error::TypeError;
use crate::schema::ColumnRef;
use crate::value::Value;
use sebdb_crypto::sha256::{sha256, Digest};
use sebdb_crypto::sig::KeyId;

/// Globally incremental transaction id.
pub type TxId = u64;
/// Block height / block id.
pub type BlockId = u64;

/// Reserved transaction type carrying schema definitions: a `CREATE`
/// travels through consensus as one transaction of this type (§IV-A).
pub const SCHEMA_TABLE: &str = "__schema__";
/// Milliseconds since the Unix epoch.
pub type Timestamp = u64;

/// One on-chain transaction (= one tuple of table `tname`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Transaction id; `0` until assigned by the ordering service.
    pub tid: TxId,
    /// Client-side send timestamp (ms).
    pub ts: Timestamp,
    /// Serialized signature over [`Transaction::signing_payload`].
    pub sig: Vec<u8>,
    /// Sender identity.
    pub sender: KeyId,
    /// Transaction type, i.e. the table this tuple belongs to.
    pub tname: String,
    /// Application-level attribute values, in schema order.
    pub values: Vec<Value>,
}

impl Transaction {
    /// Builds an unsigned, unordered transaction.
    pub fn new(ts: Timestamp, sender: KeyId, tname: impl Into<String>, values: Vec<Value>) -> Self {
        Transaction {
            tid: 0,
            ts,
            sig: Vec::new(),
            sender,
            tname: tname.into(),
            values,
        }
    }

    /// Whether this is a schema-sync transaction, i.e. of the reserved
    /// type [`SCHEMA_TABLE`] (compared case-insensitively, as table
    /// names are).
    pub fn is_schema_sync(&self) -> bool {
        self.tname.eq_ignore_ascii_case(SCHEMA_TABLE)
    }

    /// Canonical bytes covered by the signature: everything except `tid`
    /// (assigned later by the ordering service) and `sig` itself.
    pub fn signing_payload(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(64 + self.values.len() * 16);
        enc.put_u64(self.ts);
        enc.put_raw(self.sender.as_bytes());
        enc.put_str(&self.tname);
        enc.put_values(&self.values);
        enc.finish()
    }

    /// Content hash of the fully-assembled transaction (what Merkle
    /// leaves commit to).
    pub fn hash(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Reads a column (system or application) as a [`Value`].
    ///
    /// System columns are materialized: `tid`/`ts` as integers,
    /// `sig`/`sen_id` as bytes, `tname` as a string. Returns `None` for
    /// an out-of-range application column.
    pub fn get(&self, col: ColumnRef) -> Option<Value> {
        Some(match col {
            ColumnRef::Tid => Value::Int(self.tid as i64),
            ColumnRef::Ts => Value::Timestamp(self.ts),
            ColumnRef::Sig => Value::Bytes(self.sig.clone()),
            ColumnRef::SenId => Value::Bytes(self.sender.as_bytes().to_vec()),
            ColumnRef::Tname => Value::Str(self.tname.clone()),
            ColumnRef::App(i) => self.values.get(i)?.clone(),
        })
    }

    /// Approximate serialized size in bytes (used by block packaging to
    /// enforce the configured block size).
    pub fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }
}

/// What a scan needs to know about an encoded transaction before it
/// decides to decode it: the send time and the relation, read by
/// [`Self::parse`], and one column as a [`RawValue`], read by
/// [`Self::column`]. Nothing is allocated. `parse` stops at the
/// relation name so a scan can drop a co-located relation's tuple
/// after a few loads; `column` walks the length prefixes of the rest,
/// so between them they fail wherever [`Transaction::from_bytes`]
/// would, bar the UTF-8 of string values stepped over.
#[derive(Clone, Copy)]
pub struct TxProjection<'a> {
    /// Client-side send timestamp (ms).
    pub ts: Timestamp,
    /// Transaction type, i.e. the table this tuple belongs to.
    pub tname: &'a str,
    /// The whole encoding: `tid(8) ‖ ts(8) ‖ len(4) ‖ sig ‖ sen_id(8) ‖
    /// len(4) ‖ tname ‖ count(4) ‖ values`, checked by `parse` as far
    /// as `values_at`.
    buf: &'a [u8],
    sig_end: usize,
    values_at: usize,
}

impl<'a> TxProjection<'a> {
    /// Reads the system attributes of one transaction's encoding.
    pub fn parse(buf: &'a [u8]) -> Result<Self, TypeError> {
        let mut dec = Decoder::new(buf);
        dec.get_raw(8, "tid")?;
        let ts = dec.get_u64("ts")?;
        dec.get_bytes("sig")?;
        let sig_end = buf.len() - dec.remaining();
        dec.get_raw(8, "sen_id")?;
        let tname = dec.get_str("tname")?;
        Ok(TxProjection {
            ts,
            tname,
            buf,
            sig_end,
            values_at: buf.len() - dec.remaining(),
        })
    }

    /// The column `col` as [`Transaction::get`] would return it, still
    /// encoded; `None` for an out-of-range application column.
    pub fn column(&self, col: ColumnRef) -> Result<Option<RawValue<'a>>, TypeError> {
        // Tags as `Encoder::put_value` writes them for the `Value`
        // each system column materializes to.
        let mut column = match col {
            ColumnRef::Tid => Some((1, &self.buf[..8])),
            ColumnRef::Ts => Some((5, &self.buf[8..16])),
            ColumnRef::Sig => Some((6, &self.buf[20..self.sig_end])),
            ColumnRef::SenId => Some((6, &self.buf[self.sig_end..self.sig_end + 8])),
            ColumnRef::Tname => Some((3, self.tname.as_bytes())),
            ColumnRef::App(_) => None,
        }
        .map(|(tag, payload)| RawValue { tag, payload });
        let mut dec = Decoder::new(&self.buf[self.values_at..]);
        let count = dec.get_u32("value count")? as usize;
        for i in 0..count {
            if col == ColumnRef::App(i) {
                column = Some(dec.get_raw_value()?);
            } else {
                dec.skip_value()?;
            }
        }
        dec.expect_end()?;
        Ok(column)
    }

    /// Decodes the whole transaction onto the end of `row` as a full
    /// row: the system columns as [`Transaction::get`] materializes
    /// them, then the application values — no `Transaction` in
    /// between. Fails where and as [`Codec::from_bytes`] does; `row`
    /// then holds a prefix.
    pub fn decode_row(&self, row: &mut Vec<Value>) -> Result<(), TypeError> {
        let mut dec = Decoder::new(&self.buf[self.values_at..]);
        // Room for the whole row at once: a fresh row is one allocation.
        let count = dec.clone().get_u32("value count").unwrap_or(0) as usize;
        row.reserve(5 + count.min(1024));
        row.extend([
            Value::Int(Decoder::new(self.buf).get_i64("tid")?),
            Value::Timestamp(self.ts),
            Value::Bytes(self.buf[20..self.sig_end].to_vec()),
            Value::Bytes(self.buf[self.sig_end..self.sig_end + 8].to_vec()),
            Value::Str(self.tname.to_owned()),
        ]);
        dec.get_values_into(row)?;
        dec.expect_end()
    }
}

impl Codec for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.tid);
        enc.put_u64(self.ts);
        enc.put_bytes(&self.sig);
        enc.put_raw(self.sender.as_bytes());
        enc.put_str(&self.tname);
        enc.put_values(&self.values);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let tid = dec.get_u64("tid")?;
        let ts = dec.get_u64("ts")?;
        let sig = dec.get_bytes("sig")?.to_vec();
        let sender_bytes = dec.get_raw(8, "sen_id")?;
        let mut sender = [0u8; 8];
        sender.copy_from_slice(sender_bytes);
        let tname = dec.get_str("tname")?.to_owned();
        let mut values = Vec::new();
        dec.get_values_into(&mut values)?;
        Ok(Transaction {
            tid,
            ts,
            sig,
            sender: KeyId(sender),
            tname,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sig::{MacKeypair, Signer, Verifier};

    fn sample() -> Transaction {
        Transaction::new(
            1234,
            KeyId([1, 2, 3, 4, 5, 6, 7, 8]),
            "donate",
            vec![
                Value::str("Jack"),
                Value::str("Education"),
                Value::decimal(100),
            ],
        )
    }

    #[test]
    fn schema_sync_is_the_reserved_type_in_any_case() {
        assert!(!sample().is_schema_sync());
        for tname in [SCHEMA_TABLE, "__SCHEMA__", "__Schema__"] {
            assert!(Transaction::new(0, KeyId([0; 8]), tname, Vec::new()).is_schema_sync());
        }
    }

    #[test]
    fn codec_roundtrip() {
        let mut tx = sample();
        tx.tid = 42;
        tx.sig = vec![9u8; 33];
        let decoded = Transaction::from_bytes(&tx.to_bytes()).unwrap();
        assert_eq!(decoded, tx);
    }

    #[test]
    fn signing_payload_excludes_tid_and_sig() {
        let mut a = sample();
        let mut b = sample();
        a.tid = 1;
        b.tid = 2;
        a.sig = vec![1];
        b.sig = vec![2];
        assert_eq!(a.signing_payload(), b.signing_payload());
    }

    #[test]
    fn signing_payload_covers_content() {
        let a = sample();
        let mut b = sample();
        b.values[2] = Value::decimal(101);
        assert_ne!(a.signing_payload(), b.signing_payload());
        let mut c = sample();
        c.tname = "transfer".into();
        assert_ne!(a.signing_payload(), c.signing_payload());
    }

    #[test]
    fn sign_then_verify_via_payload() {
        let kp = MacKeypair::from_key([7u8; 32]);
        let mut tx = sample();
        tx.sender = kp.key_id();
        let sig = kp.sign(&tx.signing_payload());
        tx.sig = sig.to_bytes();
        // Ordering service assigns a tid; the signature must survive.
        tx.tid = 99;
        assert!(kp.verify(&tx.signing_payload(), &sig));
    }

    #[test]
    fn get_system_columns() {
        let mut tx = sample();
        tx.tid = 7;
        assert_eq!(tx.get(ColumnRef::Tid), Some(Value::Int(7)));
        assert_eq!(tx.get(ColumnRef::Ts), Some(Value::Timestamp(1234)));
        assert_eq!(tx.get(ColumnRef::Tname), Some(Value::str("donate")));
        assert_eq!(
            tx.get(ColumnRef::SenId),
            Some(Value::Bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]))
        );
        assert_eq!(tx.get(ColumnRef::App(2)), Some(Value::decimal(100)));
        assert_eq!(tx.get(ColumnRef::App(9)), None);
    }

    /// xorshift64*: the projection tests need seeded, not shrinking,
    /// inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn value(&mut self) -> Value {
            let len = self.below(4) as usize * self.below(6) as usize;
            match self.below(7) {
                0 => Value::Null,
                1 => Value::Int(self.next() as i64),
                2 => Value::Decimal(self.next() as i64),
                3 => Value::Str("é".repeat(len)),
                4 => Value::Bool(self.below(2) == 1),
                5 => Value::Timestamp(self.next()),
                _ => Value::Bytes((0..len).map(|_| self.next() as u8).collect()),
            }
        }

        fn tx(&mut self) -> Transaction {
            let ncols = self.below(9) as usize;
            let mut tx = Transaction::new(
                self.next(),
                KeyId(self.next().to_le_bytes()),
                ["donate", "transfer", ""][self.below(3) as usize],
                (0..ncols).map(|_| self.value()).collect(),
            );
            tx.tid = self.next();
            tx.sig = (0..self.below(40)).map(|_| self.next() as u8).collect();
            tx
        }
    }

    const ALL_COLUMNS: [ColumnRef; 15] = [
        ColumnRef::Tid,
        ColumnRef::Ts,
        ColumnRef::Sig,
        ColumnRef::SenId,
        ColumnRef::Tname,
        ColumnRef::App(0),
        ColumnRef::App(1),
        ColumnRef::App(2),
        ColumnRef::App(3),
        ColumnRef::App(4),
        ColumnRef::App(5),
        ColumnRef::App(6),
        ColumnRef::App(7),
        ColumnRef::App(8),
        ColumnRef::App(usize::MAX),
    ];

    #[test]
    fn projection_agrees_with_full_decode() {
        let mut rng = Rng(0x5eb_db18);
        for _ in 0..500 {
            let tx = rng.tx();
            let bytes = tx.to_bytes();
            let decoded = Transaction::from_bytes(&bytes).unwrap();
            for col in ALL_COLUMNS {
                let p = TxProjection::parse(&bytes).unwrap();
                assert_eq!(p.ts, decoded.ts);
                assert_eq!(p.tname, decoded.tname);
                let column = p.column(col).unwrap();
                // The expected column, taken through the encoder.
                let mut enc = Encoder::new();
                let want = decoded.get(col);
                if let Some(v) = &want {
                    enc.put_value(v);
                }
                let buf = enc.finish();
                let want_raw = want
                    .as_ref()
                    .map(|_| Decoder::new(&buf).get_raw_value().unwrap());
                assert_eq!(column, want_raw, "{col:?} of {tx:?}");
                assert_eq!(
                    column.map(|c| c.value().unwrap()),
                    want,
                    "{col:?} of {tx:?}"
                );
                assert_eq!(column.map(|c| c.is_null()), want.map(|v| v == Value::Null));
            }
        }
    }

    #[test]
    fn raw_values_are_equal_exactly_when_values_are() {
        let mut rng = Rng(77);
        let values: Vec<Value> = (0..200).map(|_| rng.value()).collect();
        let encoded: Vec<Vec<u8>> = values
            .iter()
            .map(|v| {
                let mut enc = Encoder::new();
                enc.put_value(v);
                enc.finish()
            })
            .collect();
        let raws: Vec<RawValue<'_>> = encoded
            .iter()
            .map(|b| Decoder::new(b).get_raw_value().unwrap())
            .collect();
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                assert_eq!(a == b, raws[i] == raws[j], "{a:?} vs {b:?}");
            }
        }
        // A bool written by a foreign encoder as any non-zero byte
        // decodes to `true`; its raw form must agree.
        let odd = Decoder::new(&[4, 9]).get_raw_value().unwrap();
        let canonical = Decoder::new(&[4, 1]).get_raw_value().unwrap();
        assert_eq!(odd, canonical);
    }

    fn project(buf: &[u8], col: ColumnRef) -> Result<Option<RawValue<'_>>, TypeError> {
        TxProjection::parse(buf)?.column(col)
    }

    #[test]
    fn projection_of_damaged_bytes_is_a_typed_error() {
        let mut rng = Rng(4242);
        for _ in 0..60 {
            let tx = rng.tx();
            let bytes = tx.to_bytes();
            for col in ALL_COLUMNS {
                for cut in 0..bytes.len() {
                    assert!(
                        project(&bytes[..cut], col).is_err(),
                        "prefix {cut}/{} of {tx:?} on {col:?}",
                        bytes.len()
                    );
                }
            }
            // Overwrite each value's tag in turn with every bad tag.
            let mut at = bytes.len() - {
                let mut enc = Encoder::new();
                tx.values.iter().for_each(|v| enc.put_value(v));
                enc.len()
            };
            for v in &tx.values {
                for bad in [7u8, 8, 0x7f, 0xff] {
                    let mut damaged = bytes.clone();
                    damaged[at] = bad;
                    for col in ALL_COLUMNS {
                        assert_eq!(
                            project(&damaged, col),
                            Err(TypeError::BadTag {
                                context: "value",
                                tag: bad
                            })
                        );
                    }
                }
                let mut enc = Encoder::new();
                enc.put_value(v);
                at += enc.len();
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(matches!(
                project(&longer, ColumnRef::Tid),
                Err(TypeError::SchemaMismatch { .. })
            ));
        }
    }

    /// [`TxProjection::decode_row`] on `buf`, into a fresh row.
    fn decode_row(buf: &[u8]) -> Result<Vec<Value>, TypeError> {
        let mut row = Vec::new();
        TxProjection::parse(buf)?.decode_row(&mut row).map(|()| row)
    }

    /// `tx` as a row: its system columns, then its values.
    fn laid_out(tx: &Transaction) -> Vec<Value> {
        ALL_COLUMNS[..5]
            .iter()
            .map(|&col| tx.get(col).unwrap())
            .chain(tx.values.iter().cloned())
            .collect()
    }

    #[test]
    fn decoding_into_a_row_is_the_full_decode_laid_out() {
        let mut rng = Rng(0x0de_c0de);
        for _ in 0..60 {
            let tx = rng.tx();
            let bytes = tx.to_bytes();
            assert_eq!(decode_row(&bytes), Ok(laid_out(&tx)));
            // Every prefix, every byte bumped (which breaks tags,
            // lengths and UTF-8 alike), a trailing byte: the same
            // error as the full decode, or the same row.
            let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
            for at in 0..bytes.len() {
                for bump in [1u8, 0x80] {
                    let mut b = bytes.clone();
                    b[at] = b[at].wrapping_add(bump);
                    damaged.push(b);
                }
            }
            damaged.push([bytes.as_slice(), &[0]].concat());
            for b in &damaged {
                let want = Transaction::from_bytes(b);
                let got = decode_row(b);
                assert_eq!(got, want.map(|tx| laid_out(&tx)));
            }
        }
    }

    #[test]
    fn hash_changes_with_content() {
        let a = sample();
        let mut b = sample();
        b.ts += 1;
        assert_ne!(a.hash(), b.hash());
    }
}
