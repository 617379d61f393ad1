//! Runtime values and column data types.
//!
//! STRIP v2.0 only supported fixed-length fields (paper §6.1). We keep the
//! same spirit: the value set is small and every value is cheap to copy.
//! Strings are interned-ish via `Arc<str>` so that copying a symbol between
//! tuples never reallocates the character data.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (prices, weights).
    Float,
    /// Symbol / fixed-length string (stock tickers, composite names).
    Str,
    /// Boolean.
    Bool,
    /// Microseconds since an arbitrary epoch. Used for `commit_time` and
    /// `execute_order`-style system columns as well as user timestamps.
    Timestamp,
}

impl DataType {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
            DataType::Timestamp => "timestamp",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value. `Null` is permitted in intermediate query results (e.g.
/// aggregates over empty groups) even though base tables are non-nullable.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Bool(bool),
    Timestamp(u64),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self.data_type() {
            Some(t) => t.name(),
            None => "null",
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and timestamps widen to f64. Used by arithmetic
    /// and aggregation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view (no float truncation; floats are rejected).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Checks whether this value may be stored in a column of type `ty`.
    /// Ints are implicitly widened into float columns, matching the parser's
    /// treatment of numeric literals.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (
                Value::Int(_),
                DataType::Int | DataType::Float | DataType::Timestamp
            ) | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Str)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Timestamp(_), DataType::Timestamp | DataType::Int)
        )
    }

    /// Coerce into the declared column type (only the widenings accepted by
    /// [`Value::conforms_to`]).
    pub fn coerce(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (Value::Int(i), DataType::Timestamp) => Value::Timestamp(i as u64),
            (Value::Timestamp(t), DataType::Int) => Value::Int(t as i64),
            (v, _) => v,
        }
    }

    /// Append a self-describing binary encoding of this value (one tag byte
    /// followed by a fixed- or length-prefixed payload). This is the
    /// serialization used by the write-ahead log.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(2);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(3);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.push(4);
                buf.push(*b as u8);
            }
            Value::Timestamp(t) => {
                buf.push(5);
                buf.extend_from_slice(&t.to_le_bytes());
            }
        }
    }

    /// Decode one value from `buf` starting at `*pos`, advancing `*pos` past
    /// it. Returns `None` on truncation or an unknown tag (a torn record).
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Value> {
        fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
            let s = buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        }
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            0 => Some(Value::Null),
            1 => Some(Value::Int(i64::from_le_bytes(
                take(buf, pos, 8)?.try_into().ok()?,
            ))),
            2 => Some(Value::Float(f64::from_bits(u64::from_le_bytes(
                take(buf, pos, 8)?.try_into().ok()?,
            )))),
            3 => {
                let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                let bytes = take(buf, pos, len)?;
                Some(Value::Str(Arc::from(std::str::from_utf8(bytes).ok()?)))
            }
            4 => Some(Value::Bool(*take(buf, pos, 1)?.first()? != 0)),
            5 => Some(Value::Timestamp(u64::from_le_bytes(
                take(buf, pos, 8)?.try_into().ok()?,
            ))),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl std::hash::Hash for Value {
    /// Hashes the way [`Value`] compares: values that compare equal hash
    /// alike. Ints and floats compare numerically, so both hash the bit
    /// pattern of their `f64` image (`-0.0` normalized to `0.0`); the tag
    /// is the comparison rank, shared by the two numeric variants.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => norm_zero(*i as f64).to_bits().hash(state),
            Value::Float(f) => norm_zero(*f).to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Timestamp(t) => t.hash(state),
        }
    }
}

/// Normalize `-0.0` to `0.0`, so `-0.0 == 0.0` (SQL semantics) while NaN
/// stays totally ordered via `total_cmp`.
fn norm_zero(f: f64) -> f64 {
    if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl Value {
    /// Total order over all values: Null < Bool < numeric < Str < Timestamp,
    /// with NaN ordered after every other float (total float order).
    /// Ints and floats compare numerically so mixed-type predicates behave
    /// as SQL users expect.
    fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => norm_zero(*a).total_cmp(&norm_zero(*b)),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&norm_zero(*b)),
            (Float(a), Int(b)) => norm_zero(*a).total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    /// Position of this value's type in the total order; ints and floats
    /// share one rank because they compare numerically.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Timestamp(_) => 4,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn negative_zero_equals_zero_and_hashes_equal() {
        let a = Value::Float(0.0);
        let b = Value::Float(-0.0);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn equal_values_hash_equal_across_numeric_types() {
        let values = [
            Value::Int(0),
            Value::Int(1),
            Value::Int(-3),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Float(-3.0),
            Value::Float((1u64 << 53) as f64),
            Value::Float(i64::MAX as f64),
            Value::Float(i64::MIN as f64),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Timestamp(1),
            Value::Bool(true),
            Value::str("1"),
            Value::Null,
        ];
        for a in &values {
            for b in &values {
                if a == b {
                    assert_eq!(h(a), h(b), "{a:?} == {b:?} but their hashes differ");
                }
            }
        }
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(h(&Value::Int(1)), h(&Value::Float(1.0)));
    }

    #[test]
    fn cross_type_rank_is_stable() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::str(""));
        assert!(Value::str("zzz") < Value::Timestamp(0));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).coerce(DataType::Float), Value::Float(3.0));
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::str("x").conforms_to(DataType::Str));
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::str("ab").as_str(), Some("ab"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Timestamp(9).as_i64(), Some(9));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let values = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.25),
            Value::str("IBM"),
            Value::Bool(true),
            Value::Timestamp(1_000_000),
        ];
        let mut buf = Vec::new();
        for v in &values {
            v.encode_into(&mut buf);
        }
        let mut pos = 0;
        for v in &values {
            assert_eq!(Value::decode_from(&buf, &mut pos).as_ref(), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Truncation is detected, not panicked on.
        let mut pos = 0;
        assert!(Value::decode_from(&buf[..buf.len() - 1], &mut pos).is_some());
        let mut short = buf.clone();
        short.truncate(3); // mid-Int
        let mut pos = 0;
        assert_eq!(Value::decode_from(&short, &mut pos), Some(Value::Null));
        assert!(Value::decode_from(&short, &mut pos).is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("IBM").to_string(), "IBM");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(5).to_string(), "@5");
    }
}
