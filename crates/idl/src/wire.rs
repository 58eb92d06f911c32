//! Values and their byte encodings.
//!
//! LRPC transfers arguments by byte copy whenever possible ("simple byte
//! copying is usually sufficient for transferring data across system
//! interfaces", Section 2.2). [`Value`] is the runtime representation of a
//! parameter; [`encode`]/[`decode`] are the flat byte encodings used for
//! A-stack slots and message buffers. Complex values (lists, trees,
//! garbage-collected data) get recursive, library-style marshaling —
//! exactly the class the paper leaves to "system library procedures".
//!
//! Conformance checking follows Section 3.5: a client may *send* a
//! non-conforming CARDINAL (that is the attack), and the receiving side
//! rejects it during the copy via [`decode_checked`] — "Folding this check
//! into the copy operation can result in less work than if the value is
//! first copied by the message system and then later checked by the
//! stubs."

use core::fmt;

use crate::types::{ComplexKind, Ty};

/// A binary tree value (the recursive marshaling demonstration).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TreeVal {
    /// Empty subtree.
    Leaf,
    /// Interior node with a payload.
    Node(Box<TreeVal>, i32, Box<TreeVal>),
}

impl TreeVal {
    /// Number of interior nodes.
    pub fn node_count(&self) -> usize {
        match self {
            TreeVal::Leaf => 0,
            TreeVal::Node(l, _, r) => 1 + l.node_count() + r.node_count(),
        }
    }
}

/// A runtime parameter or result value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// One byte.
    Byte(u8),
    /// 16-bit integer.
    Int16(i16),
    /// 32-bit integer.
    Int32(i32),
    /// CARDINAL carried as `i64` so that a client can hold (and send) a
    /// non-conforming negative value; the receiving stub's checked copy
    /// rejects it.
    Cardinal(i64),
    /// Fixed-size byte array.
    Bytes(Vec<u8>),
    /// Variable-size byte array.
    Var(Vec<u8>),
    /// Record of field values.
    Record(Vec<Value>),
    /// Linked list of integers (complex).
    List(Vec<i32>),
    /// Binary tree (complex).
    Tree(TreeVal),
    /// Garbage-collected blob (complex).
    Gc(Vec<u8>),
}

impl Value {
    /// A zero/default value of the given type (used to prime result slots).
    pub fn zero_of(ty: &Ty) -> Value {
        match ty {
            Ty::Bool => Value::Bool(false),
            Ty::Byte => Value::Byte(0),
            Ty::Int16 => Value::Int16(0),
            Ty::Int32 => Value::Int32(0),
            Ty::Cardinal => Value::Cardinal(0),
            Ty::ByteArray(n) => Value::Bytes(vec![0; *n]),
            Ty::VarBytes(_) => Value::Var(Vec::new()),
            Ty::Record(fields) => {
                Value::Record(fields.iter().map(|(_, t)| Value::zero_of(t)).collect())
            }
            Ty::Complex(ComplexKind::LinkedList) => Value::List(Vec::new()),
            Ty::Complex(ComplexKind::Tree) => Value::Tree(TreeVal::Leaf),
            Ty::Complex(ComplexKind::GarbageCollected) => Value::Gc(Vec::new()),
        }
    }
}

/// An encoding or conformance error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The value does not match the declared type.
    TypeMismatch {
        /// The declared type.
        expected: String,
    },
    /// A CARDINAL was outside `0..=u32::MAX` (Section 3.5's crash-the-
    /// server example).
    Conformance {
        /// The offending value.
        found: i64,
    },
    /// A variable value exceeded its declared maximum.
    TooLong {
        /// Actual length.
        len: usize,
        /// Declared maximum.
        max: usize,
    },
    /// The byte buffer ended early.
    Truncated,
    /// A marshaled tag byte was invalid.
    BadTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TypeMismatch { expected } => {
                write!(f, "value does not conform to declared type {expected}")
            }
            WireError::Conformance { found } => {
                write!(f, "CARDINAL conformance failure: {found}")
            }
            WireError::TooLong { len, max } => {
                write!(
                    f,
                    "variable value of {len} bytes exceeds declared maximum {max}"
                )
            }
            WireError::Truncated => write!(f, "encoded value is truncated"),
            WireError::BadTag(t) => write!(f, "invalid marshaling tag {t}"),
        }
    }
}

impl std::error::Error for WireError {}

fn mismatch(ty: &Ty) -> WireError {
    WireError::TypeMismatch {
        expected: ty.to_string(),
    }
}

/// Where an encoding goes: a growing vector ([`encode`]), a borrowed slice
/// ([`encode_into`]) or a byte counter ([`encoded_len`]). The one encoder
/// is generic over it.
trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Appends one byte.
    fn put_byte(&mut self, b: u8) {
        self.put(&[b]);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_byte(&mut self, b: u8) {
        self.push(b);
    }
}

/// Fills a borrowed slice front to back, counting every byte put and
/// noting those that did not fit.
struct Cursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
    overrun: bool,
}

impl Sink for Cursor<'_> {
    fn put(&mut self, bytes: &[u8]) {
        match self.buf.get_mut(self.pos..self.pos + bytes.len()) {
            Some(dst) => dst.copy_from_slice(bytes),
            None => self.overrun = true,
        }
        self.pos += bytes.len();
    }
}

/// Encodes `value` as `ty` into `out`.
///
/// Note that a non-conforming CARDINAL encodes successfully (truncated to
/// its low 32 bits, as a buggy or malicious client stub would); it is the
/// *receiver's* checked decode that rejects it.
pub fn encode(value: &Value, ty: &Ty, out: &mut Vec<u8>) -> Result<(), WireError> {
    encode_to(value, ty, out)
}

/// Encodes `value` as `ty` into the front of `out`, returning the encoded
/// length, or [`WireError::Truncated`] if it does not fit.
pub fn encode_into(value: &Value, ty: &Ty, out: &mut [u8]) -> Result<usize, WireError> {
    match fill(value, ty, out)? {
        (len, false) => Ok(len),
        (_, true) => Err(WireError::Truncated),
    }
}

/// The length of `value`'s encoding as `ty`, or the error [`encode`] would
/// raise.
pub fn encoded_len(value: &Value, ty: &Ty) -> Result<usize, WireError> {
    Ok(fill(value, ty, &mut [])?.0)
}

/// Encodes into as much of `buf` as it holds: the full length, and whether
/// it overran.
fn fill(value: &Value, ty: &Ty, buf: &mut [u8]) -> Result<(usize, bool), WireError> {
    let mut cursor = Cursor {
        buf,
        pos: 0,
        overrun: false,
    };
    encode_to(value, ty, &mut cursor)?;
    Ok((cursor.pos, cursor.overrun))
}

/// The encoder behind [`encode`], [`encode_into`] and [`encoded_len`].
fn encode_to<S: Sink>(value: &Value, ty: &Ty, out: &mut S) -> Result<(), WireError> {
    match (value, ty) {
        (Value::Bool(b), Ty::Bool) => out.put_byte(u8::from(*b)),
        (Value::Byte(b), Ty::Byte) => out.put_byte(*b),
        (Value::Int16(v), Ty::Int16) => out.put(&v.to_le_bytes()),
        (Value::Int32(v), Ty::Int32) => out.put(&v.to_le_bytes()),
        (Value::Cardinal(v), Ty::Cardinal) => out.put(&(*v as u32).to_le_bytes()),
        (Value::Bytes(b), Ty::ByteArray(n)) => {
            if b.len() != *n {
                return Err(mismatch(ty));
            }
            out.put(b);
        }
        (Value::Var(b), Ty::VarBytes(max)) => {
            if b.len() > *max {
                return Err(WireError::TooLong {
                    len: b.len(),
                    max: *max,
                });
            }
            out.put(&(b.len() as u32).to_le_bytes());
            out.put(b);
        }
        (Value::Record(vals), Ty::Record(fields)) => {
            if vals.len() != fields.len() {
                return Err(mismatch(ty));
            }
            for (v, (_, t)) in vals.iter().zip(fields) {
                encode_to(v, t, out)?;
            }
        }
        (Value::List(items), Ty::Complex(ComplexKind::LinkedList)) => {
            out.put(&(items.len() as u32).to_le_bytes());
            for i in items {
                out.put(&i.to_le_bytes());
            }
        }
        (Value::Tree(t), Ty::Complex(ComplexKind::Tree)) => encode_tree(t, out),
        (Value::Gc(b), Ty::Complex(ComplexKind::GarbageCollected)) => {
            out.put(&(b.len() as u32).to_le_bytes());
            out.put(b);
        }
        _ => return Err(mismatch(ty)),
    }
    Ok(())
}

fn encode_tree<S: Sink>(t: &TreeVal, out: &mut S) {
    match t {
        TreeVal::Leaf => out.put_byte(0),
        TreeVal::Node(l, v, r) => {
            out.put_byte(1);
            out.put(&v.to_le_bytes());
            encode_tree(l, out);
            encode_tree(r, out);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self) -> Result<i32, WireError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Decodes a value of type `ty` from the front of `buf`, returning the
/// value and the number of bytes consumed. No conformance checking — see
/// [`decode_checked`].
pub fn decode(buf: &[u8], ty: &Ty) -> Result<(Value, usize), WireError> {
    decode_as(buf, ty, false)
}

/// Decodes with receiver-side conformance checks folded into the copy: a
/// CARDINAL slot holding a value that a negative 32-bit integer would
/// produce is rejected.
pub fn decode_checked(buf: &[u8], ty: &Ty) -> Result<(Value, usize), WireError> {
    decode_as(buf, ty, true)
}

/// [`decode_checked`] if `checked`, else [`decode`].
pub fn decode_as(buf: &[u8], ty: &Ty, checked: bool) -> Result<(Value, usize), WireError> {
    let mut r = Reader { buf, pos: 0 };
    let v = decode_inner(&mut r, ty, checked)?;
    Ok((v, r.pos))
}

fn decode_inner(r: &mut Reader<'_>, ty: &Ty, check: bool) -> Result<Value, WireError> {
    Ok(match ty {
        Ty::Bool => Value::Bool(r.take(1)?[0] != 0),
        Ty::Byte => Value::Byte(r.take(1)?[0]),
        Ty::Int16 => {
            let b = r.take(2)?;
            Value::Int16(i16::from_le_bytes([b[0], b[1]]))
        }
        Ty::Int32 => Value::Int32(r.i32()?),
        Ty::Cardinal => {
            let raw = r.u32()?;
            // A Modula2+ CARDINAL occupies the full 32-bit unsigned range;
            // a negative INTEGER reinterpreted as CARDINAL shows up as a
            // value with the sign bit set, which is exactly what a
            // conforming *small* cardinal never is in these interfaces.
            if check && raw > i32::MAX as u32 {
                return Err(WireError::Conformance {
                    found: i64::from(raw as i32),
                });
            }
            Value::Cardinal(i64::from(raw))
        }
        Ty::ByteArray(n) => Value::Bytes(r.take(*n)?.to_vec()),
        Ty::VarBytes(max) => {
            let len = r.u32()? as usize;
            if len > *max {
                return Err(WireError::TooLong { len, max: *max });
            }
            Value::Var(r.take(len)?.to_vec())
        }
        Ty::Record(fields) => {
            let mut vals = Vec::with_capacity(fields.len());
            for (_, t) in fields {
                vals.push(decode_inner(r, t, check)?);
            }
            Value::Record(vals)
        }
        Ty::Complex(ComplexKind::LinkedList) => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(r.i32()?);
            }
            Value::List(items)
        }
        Ty::Complex(ComplexKind::Tree) => Value::Tree(decode_tree(r, 0)?),
        Ty::Complex(ComplexKind::GarbageCollected) => {
            let n = r.u32()? as usize;
            Value::Gc(r.take(n)?.to_vec())
        }
    })
}

fn decode_tree(r: &mut Reader<'_>, depth: usize) -> Result<TreeVal, WireError> {
    // Bound recursion so a malicious encoding cannot blow the host stack.
    if depth > 64 {
        return Err(WireError::BadTag(1));
    }
    match r.take(1)?[0] {
        0 => Ok(TreeVal::Leaf),
        1 => {
            let v = r.i32()?;
            let l = decode_tree(r, depth + 1)?;
            let right = decode_tree(r, depth + 1)?;
            Ok(TreeVal::Node(Box::new(l), v, Box::new(right)))
        }
        t => Err(WireError::BadTag(t)),
    }
}

/// Encodes a value to a fresh vector.
pub fn encode_vec(value: &Value, ty: &Ty) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode(value, ty, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value, ty: Ty) {
        let bytes = encode_vec(&v, &ty).unwrap();
        let (back, used) = decode(&bytes, &ty).unwrap();
        assert_eq!(back, v, "roundtrip of {ty}");
        assert_eq!(used, bytes.len());
        // Every sink of the one encoder sees the same bytes.
        assert_eq!(encoded_len(&v, &ty).unwrap(), bytes.len());
        let mut slice = vec![0xEE; bytes.len() + 1];
        assert_eq!(encode_into(&v, &ty, &mut slice).unwrap(), bytes.len());
        assert_eq!(&slice[..bytes.len()], &bytes[..]);
        assert_eq!(slice[bytes.len()], 0xEE, "nothing past the encoding");
        assert_eq!(
            encode_into(&v, &ty, &mut slice[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Bool(true), Ty::Bool);
        roundtrip(Value::Byte(0xAB), Ty::Byte);
        roundtrip(Value::Int16(-12345), Ty::Int16);
        roundtrip(Value::Int32(i32::MIN), Ty::Int32);
        roundtrip(Value::Cardinal(77), Ty::Cardinal);
    }

    #[test]
    fn arrays_and_records_roundtrip() {
        roundtrip(Value::Bytes(vec![9; 200]), Ty::ByteArray(200));
        roundtrip(Value::Var(b"hello".to_vec()), Ty::VarBytes(16));
        roundtrip(
            Value::Record(vec![Value::Int32(4096), Value::Bool(false)]),
            Ty::Record(vec![("size".into(), Ty::Int32), ("dirty".into(), Ty::Bool)]),
        );
    }

    #[test]
    fn complex_values_roundtrip() {
        roundtrip(
            Value::List(vec![1, -2, 3]),
            Ty::Complex(ComplexKind::LinkedList),
        );
        let tree = TreeVal::Node(
            Box::new(TreeVal::Node(
                Box::new(TreeVal::Leaf),
                1,
                Box::new(TreeVal::Leaf),
            )),
            2,
            Box::new(TreeVal::Leaf),
        );
        assert_eq!(tree.node_count(), 2);
        roundtrip(Value::Tree(tree), Ty::Complex(ComplexKind::Tree));
        roundtrip(
            Value::Gc(vec![1, 2, 3]),
            Ty::Complex(ComplexKind::GarbageCollected),
        );
    }

    #[test]
    fn nonconforming_cardinal_encodes_but_checked_decode_rejects() {
        // The client "passes an unwanted negative value" (Section 3.5).
        let bytes = encode_vec(&Value::Cardinal(-1), &Ty::Cardinal).unwrap();
        assert!(
            decode(&bytes, &Ty::Cardinal).is_ok(),
            "unchecked copy lets it through"
        );
        let err = decode_checked(&bytes, &Ty::Cardinal).unwrap_err();
        assert_eq!(err, WireError::Conformance { found: -1 });
    }

    #[test]
    fn oversized_var_bytes_rejected_on_both_sides() {
        let v = Value::Var(vec![0; 20]);
        assert!(matches!(
            encode_vec(&v, &Ty::VarBytes(16)),
            Err(WireError::TooLong { len: 20, max: 16 })
        ));
        // A forged length prefix is caught on decode.
        let mut bytes = (20u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 20]);
        assert!(matches!(
            decode(&bytes, &Ty::VarBytes(16)),
            Err(WireError::TooLong { .. })
        ));
    }

    #[test]
    fn wrong_sized_fixed_array_is_a_type_mismatch() {
        let v = Value::Bytes(vec![0; 4]);
        assert!(matches!(
            encode_vec(&v, &Ty::ByteArray(8)),
            Err(WireError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn truncated_buffers_error() {
        assert!(matches!(
            decode(&[1, 2], &Ty::Int32),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode(&[5, 0, 0, 0, 1], &Ty::VarBytes(16)),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn bad_tree_tag_and_runaway_depth_are_rejected() {
        assert!(matches!(
            decode(&[7], &Ty::Complex(ComplexKind::Tree)),
            Err(WireError::BadTag(7))
        ));
        // A long chain of `Node` tags with no leaves exhausts the depth
        // bound rather than the host stack.
        let mut evil = Vec::new();
        for _ in 0..100 {
            evil.push(1);
            evil.extend_from_slice(&0i32.to_le_bytes());
        }
        assert!(decode(&evil, &Ty::Complex(ComplexKind::Tree)).is_err());
    }

    #[test]
    fn zero_of_conforms_to_type() {
        for ty in [
            Ty::Bool,
            Ty::Int32,
            Ty::Cardinal,
            Ty::ByteArray(8),
            Ty::VarBytes(8),
            Ty::Record(vec![("a".into(), Ty::Int16)]),
            Ty::Complex(ComplexKind::Tree),
        ] {
            let v = Value::zero_of(&ty);
            assert!(encode_vec(&v, &ty).is_ok(), "zero of {ty} must encode");
        }
    }
}
