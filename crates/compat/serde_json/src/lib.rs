//! Offline stand-in for `serde_json`.
//!
//! Renders the serde stand-in's [`Value`] tree to JSON text and parses JSON
//! text back, exposing the `to_string` / `from_str` / `to_value` entry
//! points the workspace uses.  The text format matches real serde_json for
//! the shapes the workspace serializes, so fixtures captured from real serde
//! deserialize here unchanged.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out);
    Ok(out)
}

/// Serialize a value to pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&value.serialize(), &mut out, 0);
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::deserialize(&value)
}

/// Convert a serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(f: f64, out: &mut String) {
    if f == f.trunc() && f.abs() < 1e16 {
        // Match serde_json: whole floats print with a trailing `.0`.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U128(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(v: &Value, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_escaped(k, out);
                out.push_str(": ");
                write_value_pretty(val, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse JSON text into a [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| Error::new("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
            if let Ok(n) = text.parse::<u128>() {
                return Ok(Value::U128(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&12.0f64).unwrap(), "12.0");
        assert_eq!(to_string(&"hi\n".to_string()).unwrap(), "\"hi\\n\"");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<f64>("2.5e3").unwrap(), 2500.0);
    }

    #[test]
    fn roundtrip_containers() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u32>>>(&text).unwrap(), v);

        let mut m = std::collections::HashMap::new();
        m.insert(3u32, 0.5f64);
        m.insert(1u32, 2.0f64);
        let text = to_string(&m).unwrap();
        assert_eq!(text, "{\"1\":2.0,\"3\":0.5}");
        assert_eq!(
            from_str::<std::collections::HashMap<u32, f64>>(&text).unwrap(),
            m
        );
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("A")
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }
}
