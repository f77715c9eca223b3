//! Offline stand-in for `serde_json`.
//!
//! Renders the serde stand-in's [`Value`] tree to JSON text and parses JSON
//! text back, exposing the `to_string` / `to_string_pretty` / `from_str` /
//! `to_value` entry points the workspace uses, plus [`parse`] for an untyped
//! tree.  The text format matches real serde_json for the shapes the
//! workspace serializes, so fixtures captured from real serde deserialize
//! here unchanged.
//!
//! Two lower-level entry points render into any [`io::Write`] sink without
//! building a `String`: [`write_value`] writes a borrowed [`Value`] tree as
//! compact JSON (`to_string` is `write_value` into a byte buffer), and
//! [`write_str`] writes one string literal.  Code that lays out its own
//! structure — the artifact store's canonical content key, which writes
//! straight into a hash — renders its keys and scalars through them, so the
//! workspace has one JSON formatting code.
//!
//! Like serde_json, the parser refuses nesting deeper than 128 arrays and
//! objects: such text is an error, not a stack overflow.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// Deepest nesting of arrays and objects [`parse`] accepts (serde_json's
/// recursion limit).
const MAX_DEPTH: usize = 128;

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_value(&mut out, &value.serialize()).expect("writing to a Vec cannot fail");
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
}

/// Serialize a value to pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_value_pretty(&mut out, &value.serialize(), 0).expect("writing to a Vec cannot fail");
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
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

/// Write `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
pub fn write_str<W: Write + ?Sized>(out: &mut W, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    // Every byte that needs an escape is ASCII, so it never sits inside a
    // multi-byte UTF-8 sequence and the runs between escapes stay whole.
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_all(&bytes[run..i])?;
        match b {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\r' => out.write_all(b"\\r")?,
            b'\t' => out.write_all(b"\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_all(&bytes[run..])?;
    out.write_all(b"\"")
}

fn write_f64<W: Write + ?Sized>(out: &mut W, f: f64) -> io::Result<()> {
    if f == f.trunc() && f.abs() < 1e16 {
        // Match serde_json: whole floats print with a trailing `.0`.
        write!(out, "{f:.1}")
    } else {
        write!(out, "{f}")
    }
}

/// Write a borrowed value tree as compact JSON — the bytes [`to_string`]
/// returns.
pub fn write_value<W: Write + ?Sized>(out: &mut W, v: &Value) -> io::Result<()> {
    match v {
        Value::Null => out.write_all(b"null"),
        Value::Bool(true) => out.write_all(b"true"),
        Value::Bool(false) => out.write_all(b"false"),
        Value::U64(n) => write!(out, "{n}"),
        Value::I64(n) => write!(out, "{n}"),
        Value::U128(n) => write!(out, "{n}"),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => {
            out.write_all(b"[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                write_value(out, item)?;
            }
            out.write_all(b"]")
        }
        Value::Object(entries) => {
            out.write_all(b"{")?;
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                write_str(out, k)?;
                out.write_all(b":")?;
                write_value(out, val)?;
            }
            out.write_all(b"}")
        }
    }
}

fn write_value_pretty<W: Write + ?Sized>(out: &mut W, v: &Value, indent: usize) -> io::Result<()> {
    let (pad, close_pad) = (2 * (indent + 1), 2 * indent);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.write_all(b"[\n")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",\n")?;
                }
                write!(out, "{:pad$}", "")?;
                write_value_pretty(out, item, indent + 1)?;
            }
            write!(out, "\n{:close_pad$}]", "")
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.write_all(b"{\n")?;
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",\n")?;
                }
                write!(out, "{:pad$}", "")?;
                write_str(out, k)?;
                out.write_all(b": ")?;
                write_value_pretty(out, val, indent + 1)?;
            }
            write!(out, "\n{:close_pad$}}}", "")
        }
        other => write_value(out, other),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Parse JSON text into a [`Value`] tree.
///
/// Text nested deeper than 128 arrays and objects is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
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
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parse one array or object, one level deeper than the caller.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting limit of {MAX_DEPTH} levels exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
    use proptest::prelude::*;
    use proptest::TestRng;

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

    #[test]
    fn nesting_stops_at_128_levels() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse(&arrays(128)).is_ok());
        assert!(parse(&objects(128)).is_ok());
        for depth in [129, 100_000] {
            for text in [arrays(depth), objects(depth)] {
                let err = parse(&text).unwrap_err();
                assert!(err.0.contains("nesting limit"), "{err}");
            }
        }
    }

    /// Random value trees: every scalar kind — `-0.0`, whole floats and
    /// floats at or above 1e16 among them — strings with escapes, control
    /// characters and non-ASCII, and nested arrays and objects.
    struct AnyValue;

    impl Strategy for AnyValue {
        type Value = Value;
        fn sample(&self, rng: &mut TestRng) -> Value {
            random_value(rng, 3)
        }
    }

    const STRINGS: [&str; 8] = [
        "",
        "plain",
        "quo\"te",
        "back\\slash/",
        "line\nfeed\r\t",
        "\u{0}\u{8}\u{c}\u{1f}\u{7f}",
        "h\u{e9}llo \u{65e5}\u{672c} \u{1f980}",
        "z",
    ];
    const FLOATS: [f64; 8] = [0.0, -0.0, 12.0, -3.0, 0.1, 1e16, 2.5e17, 1e-7];

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    fn random_value(rng: &mut TestRng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 8 } else { 10 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::U64(rng.next_u64() >> rng.below(64)),
            3 => Value::I64(rng.next_u64() as i64),
            4 => Value::U128(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())),
            5 => Value::F64(pick(rng, &FLOATS)),
            6 => Value::F64((rng.uniform() - 0.5) * 1e6),
            7 => Value::Str(pick(rng, &STRINGS).to_string()),
            8 => Value::Array(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|_| {
                        (
                            pick(rng, &STRINGS).to_string(),
                            random_value(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// The writer as it was before it wrote into an `io::Write` sink: the
    /// reference its bytes are held to.
    mod string_writer {
        use serde::Value;

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
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&format!("{f}"));
            }
        }

        pub(super) fn write_value(v: &Value, out: &mut String) {
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

        pub(super) fn write_value_pretty(v: &Value, out: &mut String, indent: usize) {
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
    }

    proptest! {
        #[test]
        fn the_sink_writer_renders_the_string_writers_bytes(v in AnyValue) {
            let mut compact = String::new();
            string_writer::write_value(&v, &mut compact);
            prop_assert_eq!(to_string(&v).unwrap(), compact);
            let mut pretty = String::new();
            string_writer::write_value_pretty(&v, &mut pretty, 0);
            prop_assert_eq!(to_string_pretty(&v).unwrap(), pretty);
        }
    }
}
