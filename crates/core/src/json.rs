//! A minimal JSON value with deterministic serialization.
//!
//! The workspace has no registry access, so this module hand-rolls
//! the subset of JSON its tools exchange: `null`, booleans, 64-bit
//! signed integers, strings, arrays, and objects. It is the one JSON
//! implementation in the workspace: the `aced` wire protocol, the
//! SARIF emitter and validator, the Chrome-trace sink, and
//! `service_load`'s bench file all use it. Objects preserve insertion
//! order, so the same [`Json`] value always serializes to the same
//! bytes — the property the golden-bytes wire-format test pins.
//!
//! Floating-point numbers are deliberately absent: every quantity
//! (coordinates, counters, nanoseconds, line numbers) is an integer,
//! and integers round-trip exactly.
//!
//! # Examples
//!
//! ```
//! use ace_core::json::Json;
//!
//! let v = Json::obj([("op", Json::str("ping")), ("id", Json::Int(7))]);
//! let text = v.to_text();
//! assert_eq!(text, r#"{"op":"ping","id":7}"#);
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. Nothing the
/// workspace writes nests past ten levels, and the bound keeps a
/// hostile input from exhausting a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value (integer-only numbers, ordered object keys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number. Fractions are never used.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved and significant for
    /// serialization (not for [`PartialEq`] — see [`Json::get`]).
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a key up in an object (first match). `None` for missing
    /// keys and for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Json::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text (no whitespace, object keys in
    /// insertion order) — the canonical wire form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_quoted(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_quoted(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Accepts standard JSON with three
    /// restrictions: numbers must be integers in `i64` range (no
    /// fractions or exponents), duplicate object keys are rejected,
    /// and arrays and objects nest at most [`MAX_DEPTH`] deep.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            members: Vec::new(),
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after value"));
        }
        Ok(value)
    }
}

/// `s` as a quoted JSON string literal, escaped exactly as
/// [`Json::to_text`] escapes it — for emitters that lay out their own
/// documents.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_quoted(s, &mut out);
    out
}

/// Appends `s` to `out` as [`quote`] renders it, for emitters that
/// write a whole document into one buffer.
pub fn write_quoted(s: &str, out: &mut String) {
    out.push('"');
    // Copy unescaped runs whole; escaped bytes are ASCII, so every
    // run ends on a character boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
    /// Elements and members of the open arrays and objects, innermost
    /// last. A container is moved out with exactly its length, so a
    /// parsed tree carries no growth slack.
    items: Vec<Json>,
    members: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-') | Some(b'0'..=b'9') => self.integer(),
            Some(b) => Err(self.error(format!("unexpected byte 0x{b:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn integer(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.error("numbers must be integers"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| self.error(format!("integer out of range: {text}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece: both are ASCII, so the run ends on a character
            // boundary and decoding stays linear in the input.
            let start = self.pos;
            let Some(len) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            self.pos += len;
            let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| JsonError {
                at: start + e.valid_up_to(),
                message: "invalid utf-8".into(),
            })?;
            out.push_str(run);
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(self.error("bad escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The character of a `\u` escape whose four hex digits start at
    /// `pos`, including a following low surrogate when this one is
    /// high.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pairs: this module only writes \u for control
        // characters, but accepts well-formed pairs from other
        // encoders.
        let c = if (0xD800..0xDC00).contains(&code) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("bad low surrogate"));
            }
            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
        } else {
            char::from_u32(code)
        };
        c.ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("bad \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let start = self.items.len();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                let item = self.value()?;
                self.items.push(item);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.error("expected ',' or ']'")),
                }
            }
        }
        self.pos += 1;
        Ok(Json::Arr(self.items.drain(start..).collect()))
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let start = self.members.len();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                if self.members[start..].iter().any(|(k, _)| *k == key) {
                    return Err(self.error(format!("duplicate key '{key}'")));
                }
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                self.members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.error("expected ',' or '}'")),
                }
            }
        }
        self.pos += 1;
        Ok(Json::Obj(self.members.drain(start..).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        // One long string with multi-byte characters and escapes
        // spread through it: decoding must stay linear in its length.
        let long: String = "aλ→𝄞\"\\\n".chars().cycle().take(1 << 20).collect();
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::str(""),
            Json::str("plain"),
            Json::str("quo\"te back\\slash new\nline tab\ttab"),
            Json::str("unicode λ→∞ and control \u{1}"),
            Json::str(long),
        ] {
            let text = v.to_text();
            assert_eq!(Json::parse(&text).unwrap(), v, "via {:.80}", text);
        }
    }

    #[test]
    fn containers_round_trip_and_preserve_key_order() {
        let v = Json::obj([
            ("zebra", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("alpha", Json::obj([("k", Json::Bool(false))])),
        ]);
        let text = v.to_text();
        assert_eq!(text, r#"{"zebra":[1,null],"alpha":{"k":false}}"#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\n\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str(), Some("A\n"));
        // Surrogate pair for 𝄞 (U+1D11E).
        let clef = Json::parse("\"\\uD834\\uDD1E\"").unwrap();
        assert_eq!(clef.as_str(), Some("\u{1D11E}"));
        let all = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9""#).unwrap();
        assert_eq!(all.as_str(), Some("\"\\/\u{8}\u{c}\n\r\té"));
        assert_eq!(quote("a\"\u{1f}é"), "\"a\\\"\\u001fé\"");
    }

    #[test]
    fn bad_input_is_rejected_with_offsets() {
        for (text, needle) in [
            ("", "end of input"),
            ("1.5", "integers"),
            ("1e3", "integers"),
            ("-2.5e2", "integers"),
            ("99999999999999999999", "out of range"),
            ("[1,", "end of input"),
            ("[1,]", "unexpected byte"),
            ("{\"a\":1,\"a\":2}", "duplicate"),
            ("\"abc", "unterminated"),
            ("\"ab\\", "bad escape"),
            ("\"\\q\"", "bad escape"),
            ("nul", "expected 'null'"),
            ("[1 2]", "expected ','"),
            ("{\"a\" 1}", "expected ':'"),
            ("1 1", "trailing"),
            ("[1] trailing", "trailing"),
            ("\"\\uD834\"", "surrogate"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?}: got {:?}",
                err.message
            );
        }
    }

    #[test]
    fn nesting_is_bounded_without_exhausting_the_stack() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{}", err.message);
        // Far past any thread's stack if recursion were unbounded.
        let err = Json::parse(&"[".repeat(10_000)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        let objects = "{\"k\":".repeat(10_000);
        assert!(Json::parse(&objects)
            .unwrap_err()
            .message
            .contains("nesting"));
    }

    #[test]
    fn get_and_accessors() {
        let v = Json::obj([("n", Json::Int(5)), ("s", Json::str("x"))]);
        assert_eq!(v.get("n").unwrap().as_int(), Some(5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(1).get("n"), None);
        assert_eq!(Json::Null.as_int(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
    }
}
