//! Offline stand-in for `serde_json`.
//!
//! Renders the `serde` shim's [`Value`] tree as JSON, and parses JSON
//! text back into that tree. Output mirrors real serde_json's
//! conventions where they matter to this workspace: two-space pretty
//! indentation, shortest round-trip float formatting (Rust's `{:?}`
//! for `f64`, which is ryu-equivalent), `null` for non-finite floats,
//! and `\uXXXX` escapes for control characters. The parser accepts
//! exactly RFC 8259 JSON (no comments, no trailing commas) and keeps
//! object keys in document order, so parse → render is the identity on
//! this renderer's output.
//!
//! Formatting is fully deterministic: the same value tree always
//! renders to the same bytes, which the parallel-vs-serial sweep
//! equality tests rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};

/// Parse or deserialization error, with a human-readable message
/// (byte offset for syntax errors). The render path never produces
/// one; it is fallible only so call sites written against real
/// serde_json's signatures keep compiling.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Render `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Render `value` as pretty JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Render `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parse JSON text into a [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Parse JSON text and deserialize it into `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let v = parse(text)?;
    T::from_value(&v).map_err(Error)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consume `lit` (used after its first byte has been peeked).
    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // '['
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening '"'
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low \uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied through verbatim; the
                    // input is a &str, so it is already valid.
                    let start = self.pos;
                    let s = &self.bytes[start..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b < 0xE0 => 2,
                        b if b < 0xF0 => 3,
                        _ => 4,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..ch_len])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos += ch_len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if !is_float {
            // Integral form: mirror the Serialize convention (Int when
            // it fits in i64, UInt above that).
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(Error(format!("invalid number `{text}` at byte {start}"))),
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_string(out, s),
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
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    // JSON has no NaN or infinity: a non-finite `Value::Float` (one built
    // by hand; `f64::to_value` already maps these to `Null`) is written
    // as `null`, as real serde_json writes it.
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:?}` for f64 is the shortest representation that round-trips
    // (same guarantee ryu gives real serde_json), and always includes
    // a `.0` or exponent so the value reads back as a float.
    out.push_str(&format!("{f:?}"));
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_render() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Int(1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Float(0.5), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[0.5,null]}"#);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": 1,\n  \"b\": [\n    0.5,\n    null\n  ]\n}"
        );
    }

    #[test]
    fn floats_round_trip_and_keep_a_fraction() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn a_non_finite_float_value_is_written_as_null() {
        let v = Value::Array(vec![
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(2.5),
        ]);
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[null,null,null,2.5]");
        assert_eq!(
            parse(&text).unwrap(),
            Value::Array(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Float(2.5)
            ])
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            to_string(&"a\"b\\c\nd\u{01}").unwrap(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn parse_round_trips_renderer_output() {
        let v = Value::Object(vec![
            ("label".to_string(), Value::String("γ=2 \"q\"\n".into())),
            (
                "series".to_string(),
                Value::Array(vec![
                    Value::Float(0.1),
                    Value::Int(-3),
                    Value::UInt(u64::MAX),
                    Value::Null,
                    Value::Bool(true),
                ]),
            ),
            ("empty".to_string(), Value::Array(vec![])),
            ("nested".to_string(), Value::Object(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_handles_numbers_and_escapes() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::UInt(u64::MAX));
        assert_eq!(parse("2.5e-3").unwrap(), Value::Float(0.0025));
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
        assert_eq!(
            parse(r#""a\"b\\c\nd\u0001\ud83d\ude00""#).unwrap(),
            Value::String("a\"b\\c\nd\u{01}😀".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "tru", "1.0.0", "\"unterminated", "{\"a\" 1}",
            "[1] trailing", "nan", "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn from_str_deserializes_typed_values() {
        let xs: Vec<f64> = from_str("[1.0, 2.5]").unwrap();
        assert_eq!(xs, vec![1.0, 2.5]);
        let n: u64 = from_str("9").unwrap();
        assert_eq!(n, 9);
        assert!(from_str::<bool>("3").is_err());
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(
            to_string_pretty(&Value::Array(vec![])).unwrap(),
            "[]"
        );
        assert_eq!(to_string_pretty(&Value::Object(vec![])).unwrap(), "{}");
    }
}
