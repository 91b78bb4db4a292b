//! Flat JSON objects: the one writer and the one reader of every JSON
//! line the simulator and its harness emit (shard journals, `--json`
//! streams, metrics and CPI-stack rows).
//!
//! Keys come out in call order. Integers are exact `u64`s (seeds are full
//! 64-bit values a round trip through `f64` would corrupt); floats use
//! `{}`, the shortest form that round-trips, and `str::parse` is its exact
//! inverse, so merged tables stay byte-identical to unsharded ones.
//! Strings escape `"`, `\` and control characters, and the parser reads
//! every JSON escape. Both sides are flat: the writer has no nested
//! values and the parser rejects them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Writes one flat JSON object, keys in call order.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    /// Starts the next member and returns the buffer to write its value.
    fn key(&mut self, key: &str) -> &mut String {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        write_string(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    /// Adds a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut JsonWriter {
        write_string(self.key(key), value);
        self
    }

    /// Adds an integer member, written exactly.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut JsonWriter {
        self.raw(key, &value.to_string())
    }

    /// Adds a float member in its shortest round-trip form.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut JsonWriter {
        self.raw(key, &value.to_string())
    }

    /// Adds a `true`/`false` member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut JsonWriter {
        self.raw(key, &value.to_string())
    }

    /// Adds a member whose value is already encoded JSON.
    fn raw(&mut self, key: &str, json: &str) -> &mut JsonWriter {
        self.key(key).push_str(json);
        self
    }

    /// Closes the object and returns it as one line.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// The one-character escapes: the letter after `\`, and what it means.
const ESCAPES: [(char, char); 8] = [
    ('"', '"'),
    ('\\', '\\'),
    ('/', '/'),
    ('b', '\u{8}'),
    ('f', '\u{c}'),
    ('n', '\n'),
    ('r', '\r'),
    ('t', '\t'),
];

/// Appends `s` as a JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match ESCAPES.iter().find(|&&(e, raw)| raw == c && e != '/') {
            Some(&(e, _)) => {
                out.push('\\');
                out.push(e);
            }
            None if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            None => out.push(c),
        }
    }
    out.push('"');
}

/// One parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string.
    Str(String),
    /// A non-negative integer that fits `u64` exactly.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

impl JsonValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// An error naming `what` went wrong and the byte offset.
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Skips whitespace and returns the byte at the cursor.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected `{}`", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let end = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            // An escape: one letter, or `u` and four hex digits.
            let (c, len) = match rest[end + 1..].chars().next() {
                Some('u') => (
                    rest.get(end + 2..end + 6)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?)),
                    5,
                ),
                e => (ESCAPES.iter().find(|p| Some(p.0) == e).map(|p| p.1), 1),
            };
            out.push(c.ok_or_else(|| self.err("unsupported escape"))?);
            self.pos += len;
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        let first = self.peek();
        let rest = &self.text[self.pos..];
        for (word, b) in [("true", true), ("false", false)] {
            if rest.starts_with(word) {
                self.pos += word.len();
                return Ok(JsonValue::Bool(b));
            }
        }
        if first == Some(b'"') {
            return Ok(JsonValue::Str(self.string()?));
        }
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
            .unwrap_or(rest.len());
        let token = &rest[..len];
        if token.is_empty() {
            return Err(self.err("expected a value"));
        }
        let value = match token.parse() {
            Ok(n) if token.bytes().all(|b| b.is_ascii_digit()) => Some(JsonValue::Int(n)),
            _ => token.parse().ok().map(JsonValue::Float),
        };
        let value = value.ok_or_else(|| self.err(&format!("bad number `{token}`")))?;
        self.pos += len;
        Ok(value)
    }
}

/// Parses one flat JSON object into key→value map form.
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input, a nested
/// value, or a key that appears twice. A truncated line is malformed: that is how a
/// journal torn by a mid-write kill is detected.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser { text: line, pos: 0 };
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.peek();
            let duplicate = p.err("duplicate key");
            let key = p.string()?;
            p.expect(b':')?;
            if map.insert(key, p.value()?).is_some() {
                return Err(duplicate);
            }
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(p.err("expected `,` or `}`")),
            }
        }
    }
    if p.peek().is_some() {
        return Err(p.err("trailing bytes after object"));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_point_line() {
        let line = "{\"variant\":\"F+P+M+A\",\"workload\":\"gcc\",\"kinsts\":2000,\
                    \"seed\":13835058055282163712,\"branch_mpki\":13.537,\"ok\":true}";
        let obj = parse_object(line).unwrap();
        assert_eq!(obj["variant"].as_str(), Some("F+P+M+A"));
        assert_eq!(obj["kinsts"].as_u64(), Some(2000));
        // A seed above 2^53: exact through the Int path, corrupted via f64.
        assert_eq!(obj["seed"].as_u64(), Some(13835058055282163712));
        assert_eq!(obj["branch_mpki"].as_f64(), Some(13.537));
        assert_eq!(obj["ok"], JsonValue::Bool(true));
    }

    #[test]
    fn float_round_trips_exactly() {
        for x in [0.1f64, 18.046512341, 1e-12, 123456.789012345] {
            let line = format!("{{\"x\":{x}}}");
            let obj = parse_object(&line).unwrap();
            assert_eq!(obj["x"].as_f64(), Some(x), "{line}");
        }
    }

    #[test]
    fn rejects_torn_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\":}",
            "{\"a\":1,\"b\":\"xyz",
            "{\"a\":1}{",
            "not json",
            "{\"a\":1,\"a\":2}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_object_and_escapes() {
        assert!(parse_object("{}").unwrap().is_empty());
        let obj = parse_object("{\"s\":\"a\\\"b\\\\c\\/\\b\\f\\u00e9\"}").unwrap();
        assert_eq!(obj["s"].as_str(), Some("a\"b\\c/\u{8}\u{c}é"));
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let strings = [
            "q\"uote",
            "back\\slash",
            "new\nline",
            "\t\r\u{1}\u{7f}",
            "größe 測定 🦀",
        ];
        let mut w = JsonWriter::default();
        for s in strings {
            w.str(s, s);
        }
        let seed = (1u64 << 53) + 1;
        w.u64("seed", seed).f64("tenth", 0.1).f64("tiny", 1e-12);
        let line = w.finish();
        assert!(!line.contains('\n'), "{line}");
        let obj = parse_object(&line).unwrap();
        for s in strings {
            assert_eq!(obj[s].as_str(), Some(s));
        }
        assert_eq!(obj["seed"].as_u64(), Some(seed));
        assert_eq!(obj["tenth"].as_f64(), Some(0.1));
        assert_eq!(obj["tiny"].as_f64(), Some(1e-12));
    }

    #[test]
    fn writer_keeps_call_order_and_nests_raw_values() {
        let mut inner = JsonWriter::default();
        inner.u64("b", 2).u64("a", 1);
        let mut w = JsonWriter::default();
        w.str("z", "")
            .raw("n", &inner.finish())
            .f64("f", 2.0)
            .bool("t", true);
        let line = w.finish();
        assert_eq!(
            line,
            "{\"z\":\"\",\"n\":{\"b\":2,\"a\":1},\"f\":2,\"t\":true}"
        );
        assert_eq!(JsonWriter::default().finish(), "{}");
    }
}
