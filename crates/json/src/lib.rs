//! A small, dependency-free JSON library.
//!
//! The workspace builds in an offline environment without crates.io, so
//! `serde`/`serde_json` are unavailable; this crate covers the two things
//! the project actually needs from JSON:
//!
//! * parsing experiment configs ([`parse`] → [`Value`] with typed
//!   accessors, and field readers that name the field in their errors), and
//! * emitting machine-readable results ([`Value::to_string_pretty`],
//!   plus the [`obj!`]/[`arr!`] builder macros).
//!
//! Numbers are `f64` (JSON's own model); object member order is
//! preserved, and parse errors carry byte offsets.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member named `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `f64` content of a number node.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer content of a number node (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// String content of a string node.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Bool content of a bool node.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Elements of an array node.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Members of an object node.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// This number as an integer of type `T`, converted with `try_from`
    /// rather than cast, so a config's `"capacity": 4294967301` is an
    /// error naming `name` instead of a silent 5.
    pub fn integer<T: TryFrom<u64>>(&self, name: &str) -> Result<T, String> {
        let n = self
            .as_u64()
            .ok_or_else(|| format!("\"{name}\" must be a non-negative integer"))?;
        T::try_from(n).map_err(|_| format!("\"{name}\" {n} is out of range"))
    }

    /// Member `key` as an [integer](Self::integer); `None` when absent.
    pub fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key).map(|x| x.integer(key)).transpose()
    }

    /// Member `key` as a number; `None` when absent.
    pub fn f64_field(&self, key: &str) -> Result<Option<f64>, String> {
        self.get(key)
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| format!("\"{key}\" must be a number"))
            })
            .transpose()
    }

    /// Object member names, for "unknown key" diagnostics.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(x) => out.push_str(&format_number(*x)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Number(x as f64)
    }
}
impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::Number(f64::from(x))
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Number(x as f64)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value::Object`]: `obj! { "a" => 1.0, "b" => arr![...] }`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::Value::Object(vec![
            $(($key.to_string(), $crate::Value::from($value)),)*
        ])
    };
}

/// Builds a [`Value::Array`]: `arr![1.0, 2.0]`.
#[macro_export]
macro_rules! arr {
    ($($value:expr),* $(,)?) => {
        $crate::Value::Array(vec![$($crate::Value::from($value),)*])
    };
}

fn format_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; emit null like serde_json's lossy mode.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let s = format!("{x}");
        debug_assert!(s.parse::<f64>().is_ok());
        s
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a cap a long run of `[` overflows
/// the stack and aborts the process; the workspace's own documents nest a
/// handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// Documents nesting arrays and objects deeper than [`MAX_DEPTH`] are
/// rejected with a [`ParseError`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|mut e| {
                e.message = "expected object key string".to_string();
                e
            })?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for configs;
                            // reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError {
                message: "invalid number".to_string(),
                offset: start,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Value::String("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "x"}], "c": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap(), &Value::Object(vec![]));
        assert_eq!(v.keys(), vec!["a", "c"]);
    }

    #[test]
    fn round_trips_through_writer() {
        let src = r#"{"name":"q\"uote","xs":[1,2.5,-3],"flag":false,"none":null}"#;
        let v = parse(src).unwrap();
        let back = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, back);
        let pretty = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn typed_accessors() {
        let v = parse(r#"{"n": 3, "x": 3.5, "s": "hi", "b": true}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("x").unwrap().as_u64(), None, "fractional is not u64");
        assert_eq!(v.get("x").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn field_readers_name_the_field() {
        let v = parse(r#"{"n": 3, "big": 4294967301, "neg": -1, "x": 3.5, "s": "hi"}"#).unwrap();
        assert_eq!(v.int_field::<u32>("n"), Ok(Some(3)));
        assert_eq!(v.int_field::<u32>("missing"), Ok(None));
        assert_eq!(
            v.int_field::<u32>("big"),
            Err("\"big\" 4294967301 is out of range".to_string())
        );
        assert_eq!(v.int_field::<u64>("big"), Ok(Some(4_294_967_301)));
        for key in ["neg", "x", "s"] {
            assert_eq!(
                v.int_field::<u64>(key),
                Err(format!("\"{key}\" must be a non-negative integer"))
            );
        }
        assert_eq!(v.f64_field("x"), Ok(Some(3.5)));
        assert_eq!(v.f64_field("missing"), Ok(None));
        assert_eq!(v.f64_field("s"), Err("\"s\" must be a number".to_string()));
    }

    #[test]
    fn builder_macros() {
        let v = obj! {
            "policy" => "controlled",
            "blocking" => 0.125,
            "utilization" => arr![0.5, 0.25],
            "seeds" => 10u64,
        };
        let text = v.to_string_compact();
        assert_eq!(
            text,
            r#"{"policy":"controlled","blocking":0.125,"utilization":[0.5,0.25],"seeds":10}"#
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "01x",
            r#"{"a":1,"a":2}"#,
            "true false",
            "",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = parse("[1, }").unwrap_err();
        assert!(err.offset > 0 && err.to_string().contains("at byte"));
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_DEPTH} levels")
        );
        assert_eq!(err.offset, MAX_DEPTH);
        // Far past the cap the parser returns an error instead of
        // overflowing the stack, for arrays and objects alike.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let err = parse(&r#"{"a":"#.repeat(200_000)).unwrap_err();
        assert!(err.message.starts_with("nesting deeper"), "{err}");
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Value::Number(1e6).to_string_compact(), "1000000");
        assert_eq!(Value::Number(0.1).to_string_compact(), "0.1");
        assert_eq!(Value::Number(f64::NAN).to_string_compact(), "null");
    }
}
