//! A small JSON reader: the one JSON parser in the workspace, plus
//! the one string escaper its writers share ([`write_escaped`]).
//!
//! The workspace is hermetic (no serde_json), and everything it reads
//! back is JSON it wrote itself: trace lines ([`crate::TraceReader`]
//! is built on this module) and the bench harness's artifacts
//! (`BENCH_suite.json`, `BENCH_profile.json`, `BENCH_history.jsonl`).
//! A recursive-descent parser into a dynamic [`Value`] covers both.
//!
//! Input is untrusted: a malformed document, a truncated `\u` escape,
//! a lone surrogate or nesting deeper than [`MAX_DEPTH`] returns `Err`
//! — nothing panics and nothing overflows the stack.
//!
//! An integer token without a sign, fraction or exponent that fits a
//! `u64` parses to an exact [`Value::U64`] (trace ids and `t_ns` exceed
//! the 2^53 an `f64` holds exactly); every other number is a
//! [`Value::F64`].
//!
//! ```
//! use lgv_trace::json::Value;
//!
//! let v = Value::parse(r#"{"id": 18446744073709551615, "w": 1.5}"#).unwrap();
//! assert_eq!(v.get("id").and_then(Value::as_u64), Some(u64::MAX));
//! assert_eq!(v.get("w").and_then(Value::as_f64), Some(1.5));
//! assert!(Value::parse(&"[".repeat(100_000)).is_err());
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`Value::parse`] accepts; deeper input
/// is an error rather than unbounded recursion.
pub const MAX_DEPTH: usize = 128;

/// Append `s` to `out` as the inside of a JSON string literal: quotes,
/// backslashes and control characters escaped, with no intermediate
/// allocation. The trace encoder and the bench harness's artifact
/// writers share it.
///
/// ```
/// let mut out = String::new();
/// lgv_trace::json::write_escaped(&mut out, "a\"b\n\u{1}");
/// assert_eq!(out, r#"a\"b\n\u0001"#);
/// ```
pub fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer token (digits only) that fits a `u64`.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's fields, in source order (duplicates kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing content at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins); `None` off objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, or an empty slice for non-arrays.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }

    /// Number value (integers widened), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::F64(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact unsigned integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Cursor over the document; `pos` is a byte offset that only ever
/// stops on a char boundary before it is used to slice.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => self.number(),
        }
    }

    /// `{ "key": value, ... }`, positioned on the `{`; `depth` is the
    /// nesting level of the members.
    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(format!("expected `:` at offset {}", self.pos - 1));
            }
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(fields)),
                Some(_) => return Err(format!("expected `,` or `}}` at offset {}", self.pos - 1)),
                None => return Err("unterminated object".into()),
            }
        }
    }

    /// `[ value, ... ]`, positioned on the `[`.
    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                Some(_) => return Err(format!("expected `,` or `]` at offset {}", self.pos - 1)),
                None => return Err("unterminated array".into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash in
            // one go; both are ASCII, so the run ends on a boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.bump() == Some(b'"') {
                return Ok(out);
            }
            let c = match self.bump().ok_or("unterminated escape")? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{0008}',
                b'f' => '\u{000c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(format!("invalid escape at offset {}", self.pos - 2)),
            };
            out.push(c);
        }
    }

    /// The code point of a `\uXXXX` escape (positioned after the `u`):
    /// a high surrogate must be followed by an escaped low surrogate,
    /// and a lone low surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.eat("\\u") {
                return Err("high surrogate without a pair".into());
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate".into());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit at offset {}", self.pos))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if token.is_empty() {
            let c = self.text[start..].chars().next().unwrap_or(' ');
            return Err(format!("unexpected character `{c}` at offset {start}"));
        }
        if token.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        token
            .parse::<f64>()
            .map(Value::F64)
            .map_err(|_| format!("bad number `{token}` at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_shapes_the_artifacts_use() {
        let v = Value::parse(
            r#"{"schema": "x/v1", "quick": false, "n": 3, "w": 1.5,
                "none": null, "arr": [{"a": 1}, {"a": 2}]}"#,
        )
        .expect("parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("x/v1"));
        assert_eq!(v.get("quick"), Some(&Value::Bool(false)));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("w").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("w").and_then(Value::as_u64), None);
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("arr").unwrap().items().len(), 2);
        assert_eq!(
            v.get("arr").unwrap().items()[1]
                .get("a")
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_stay_exact_and_signed_or_fractional_ones_are_floats() {
        assert_eq!(
            Value::parse("9007199254740993"),
            Ok(Value::U64(9_007_199_254_740_993))
        );
        assert_eq!(Value::parse("-5"), Ok(Value::F64(-5.0)));
        assert_eq!(Value::parse("1e3"), Ok(Value::F64(1000.0)));
        assert_eq!(Value::parse("2.0"), Ok(Value::F64(2.0)));
        // Past u64::MAX an integer token falls back to a float.
        assert_eq!(
            Value::parse("18446744073709551616"),
            Ok(Value::F64(18446744073709551616.0))
        );
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = Value::parse(r#""a\"b\\c\ndAé\u0041\ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAéA\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "12 34",
            "nope",
            "",
            "\"\\u12\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\x\"",
            "\"\\u+fff\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
        assert!(Value::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    /// `|`-separated fragments that exercise every branch of the
    /// grammar, including the ones that must fail: truncated and
    /// lone-surrogate escapes, bad literals, stray separators (a space
    /// and a line break are fragments too).
    const FRAGMENTS: &str = r#"{|}|[|]|:|,|"|\|\u|\ud83d|\ude00|\u00|d83d|\n|\q|0|7|-|+|.|e|18446744073709551616|true|tru|null|false| |
|a|é|🦀|"k":|{"t_ns":1,|]]]]|[[[["#;

    fn fragments(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        let pieces: Vec<&str> = FRAGMENTS.split('|').collect();
        proptest::collection::vec(0..pieces.len(), len)
            .prop_map(move |ix| ix.into_iter().map(|i| pieces[i]).collect::<String>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary strings parse or fail; they never panic.
        #[test]
        fn parse_never_panics_on_arbitrary_text(text in fragments(0..48), raw in ".{0,24}") {
            let _ = Value::parse(&text);
            let _ = Value::parse(&raw);
            let _ = Value::parse(&format!("{text}{raw}"));
        }

        /// Deep nesting of either container kind is `Ok` exactly up to
        /// the bound and `Err` past it.
        #[test]
        fn nesting_depth_is_bounded(depth in 0usize..(MAX_DEPTH * 4), objects in any::<bool>()) {
            let (open, close) = if objects { ("{\"a\":", "}") } else { ("[", "]") };
            let doc = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            prop_assert_eq!(Value::parse(&doc).is_ok(), depth <= MAX_DEPTH);
        }
    }

    #[test]
    fn escaped_strings_parse_back_to_the_original() {
        for s in [
            "plain",
            "q\"uote",
            "back\\slash",
            "tab\tcr\rlf\n",
            "\u{1}\u{1f}",
            "é🦀",
            "",
        ] {
            let mut doc = String::from("\"");
            write_escaped(&mut doc, s);
            doc.push('"');
            assert_eq!(Value::parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        let mut out = String::new();
        write_escaped(&mut out, "\u{2}");
        assert_eq!(out, "\\u0002");
    }

    #[test]
    fn the_last_duplicate_key_wins_and_non_objects_have_no_fields() {
        let v = Value::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
        assert!(v.items().is_empty());
        let arr = Value::parse("[1, \"x\"]").unwrap();
        assert_eq!(arr.get("a"), None);
        assert_eq!(arr.items()[0].as_str(), None);
        assert_eq!(arr.items()[1].as_f64(), None);
    }

    #[test]
    fn whitespace_between_tokens_is_ignored() {
        let v = Value::parse(" \n\t{ \"a\" :\r\n [ 1 , true , null ] }\n ").unwrap();
        assert_eq!(
            v.get("a").unwrap().items(),
            &[Value::U64(1), Value::Bool(true), Value::Null]
        );
    }
}
