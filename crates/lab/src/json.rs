//! Minimal hand-rolled JSON — the workspace builds offline, so report
//! serialization cannot lean on crates.io. The writer emits canonical,
//! deterministic text (object keys in insertion order, shortest-roundtrip
//! float formatting); the parser accepts standard JSON. It re-reads what
//! the binary wrote, and it also reads input this process did not write:
//! the shard wire a `ProcessExecutor` collects from its workers and the
//! shard files `--merge` takes from other processes or hosts. So it runs
//! in time linear in its input, bounds nesting at [`MAX_DEPTH`] levels,
//! and answers any malformed text with an error naming a byte offset —
//! never a panic or a stack overflow.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, kept exact (seeds are full u64s that a f64
    /// would silently round).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved, so rendering is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric view, covering both number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact unsigned view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // `{:?}` keeps a decimal point on whole values
                    // ("2.0", not "2"), so parse(render(x)) preserves
                    // the Num/UInt variant split.
                    let _ = write!(out, "{n:?}");
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit unparseable text.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Errors carry the byte offset of the problem.
    /// Nesting deeper than [`MAX_DEPTH`] arrays and objects is an error,
    /// not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Reports nest
/// at most six levels; the bound keeps hostile input (a shard file of
/// 200k `[`) from exhausting the stack of the recursive descent.
pub const MAX_DEPTH: usize = 64;

fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    /// Eats the `[`/`{` opening one more level inside the `depth` levels
    /// already open, refusing to go past [`MAX_DEPTH`].
    fn open(&mut self, depth: usize, bracket: u8) -> Result<(), String> {
        if depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.eat(bracket)
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null").map(|_| Json::Null),
            Some(b't') => self.eat_lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Reads the four hex digits of a `\u` escape. Entered with `pos` on
    /// the `u`; leaves `pos` on the last hex digit (the caller's shared
    /// `pos += 1` then steps past it). Errors name the backslash.
    fn hex_escape(&mut self) -> Result<u32, String> {
        let at = self.pos - 1;
        let hex = self
            .bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
        let code = core::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one escape. Entered with `pos` on the character after the
    /// backslash; leaves `pos` on the escape's last byte.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex_escape()?;
                if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: must be followed by `\uDC00..\uDFFF`;
                    // combine the pair.
                    if self.bytes().get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                        return Err(format!("high surrogate not followed by \\u at byte {at}"));
                    }
                    self.pos += 2;
                    let low = self.hex_escape()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("bad low surrogate {low:#06x} at byte {at}"));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined)
                        .ok_or_else(|| format!("bad surrogate pair at byte {at}"))?
                } else if (0xDC00..0xE000).contains(&code) {
                    return Err(format!("unpaired low surrogate {code:#06x} at byte {at}"));
                } else {
                    char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))?
                }
            }
            other => return Err(format!("bad escape {other:?} at byte {at}")),
        })
    }

    /// One forward scan: each unescaped run up to the next `"` or `\` is
    /// copied with a single `push_str`. Both delimiters are ASCII, so a run
    /// always ends on a char boundary of the input `&str` and needs no
    /// re-validation — parse time stays linear in the input.
    fn string(&mut self) -> Result<String, String> {
        let open = self.pos;
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| format!("unterminated string opened at byte {open}"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            out.push(self.escape()?);
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.open(depth, b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']', got {other:?} at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.open(depth, b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', got {other:?} at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn render_parse_roundtrip() {
        let v = Json::obj(vec![
            ("name", Json::Str("matrix \"x\"\n".to_string())),
            ("seed", Json::UInt(u64::MAX)),
            ("ratio", Json::Num(0.125)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "cells",
                Json::Arr(vec![Json::UInt(1), Json::Num(-2.5), Json::Arr(vec![])]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0xdead_beef_cafe_f00d_u64;
        let text = Json::UInt(seed).render();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = Json::obj(vec![("b", Json::UInt(2)), ("a", Json::UInt(1))]);
        assert_eq!(v.render(), v.render());
        assert_eq!(v.render(), r#"{"b":2,"a":1}"#);
    }

    #[test]
    fn nonfinite_floats_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Raw (non-escaped) UTF-8 passes through unchanged too.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        // Unpaired or malformed surrogates are errors, not silent U+FFFD.
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83dA""#] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("at byte 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn whole_valued_floats_keep_their_variant_through_roundtrip() {
        for v in [Json::Num(2.0), Json::Num(0.0), Json::Num(-3.0)] {
            let text = v.render();
            assert!(text.contains('.'), "{text} must keep a decimal point");
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        // Integers still render bare and parse back as UInt.
        assert_eq!(Json::parse(&Json::UInt(2).render()).unwrap(), Json::UInt(2));
    }

    #[test]
    fn parses_standard_json_with_whitespace() {
        let v = Json::parse("  { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] }  ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("xA")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "[1 2",
            "{\"a\":1]",
            r#""\q""#,
            r#""\u12"#,
            r#""\u12g4""#,
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("at byte"), "{bad:?}: {err:?} names no offset");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for deep in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting") && err.contains("at byte"), "{err}");
        }
        // The bound itself: MAX_DEPTH levels parse, one more does not.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    proptest! {
        /// Strings drawn so that unescaped runs meet quotes, backslashes,
        /// control characters and multi-byte scalars at every boundary
        /// survive render + parse, as array items and as object keys.
        #[test]
        fn strings_roundtrip_as_items_and_keys(
            strings in collection::vec("[\"\\\n\u{1}/a-zA-Zé€😀]{0,12}", 0..6)
        ) {
            let items = Json::Arr(strings.iter().cloned().map(Json::Str).collect());
            prop_assert_eq!(Json::parse(&items.render()), Ok(items));
            let keys = Json::Obj(strings.into_iter().map(|s| (s, Json::Null)).collect());
            prop_assert_eq!(Json::parse(&keys.render()), Ok(keys));
        }
    }

    #[test]
    fn accessors_cover_variants() {
        assert_eq!(Json::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Json::Null.as_f64(), None);
        assert_eq!(Json::Str("s".into()).as_str(), Some("s"));
        assert!(Json::Arr(vec![]).as_arr().unwrap().is_empty());
        assert_eq!(Json::Null.get("k"), None);
    }
}
