//! A small JSON value with a writer and a parser: what the result files
//! under `results/` and the tests that read the sinks' output back need,
//! and no more.
//!
//! Numbers are `f64` (every count this workspace records is far below
//! 2^53), object keys are sorted, and a non-finite number renders as
//! `null` because JSON has no spelling for it. `\u` escapes decode one
//! UTF-16 unit at a time, so a surrogate pair becomes two U+FFFD; the
//! writer never produces one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Index;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in sorted order.
    Obj(BTreeMap<String, Json>),
}

/// An object literal: `obj! { "key": value, ... }` with every value passed
/// through [`Json::from`].
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(::std::collections::BTreeMap::from([
            $((::std::string::String::from($key), $crate::json::Json::from($value))),*
        ]))
    };
}

macro_rules! from_numbers {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_numbers!(f64, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

static NULL: Json = Json::Null;

/// `value["key"]`: the member, or `null` when `value` is not an object or
/// has no such key, so lookups chain without unwrapping each level.
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl Json {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // `{}` prints the shortest string that round-trips the f64,
            // and whole numbers without a fraction.
            Json::Num(n) => write!(out, "{n}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(a) if a.is_empty() => out.push_str("[]"),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(m) if m.is_empty() => out.push_str("{}"),
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; anything after it but whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Appends `s` as a quoted JSON string. The one escaper: the value writer
/// above and the streaming sinks in `sink.rs` both go through it.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    if !map.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    map.insert(key, self.value()?);
                }
            }
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded generator of arbitrary values.
    struct Draw(ns_rand::SplitMix64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0.next()
        }

        fn below(&mut self, n: u64) -> u64 {
            self.0.below(n)
        }

        fn string(&mut self) -> String {
            const ALPHABET: [char; 12] =
                ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '星'];
            (0..self.below(8)).map(|_| ALPHABET[self.below(12) as usize]).collect()
        }

        fn value(&mut self, depth: u32) -> Json {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 1),
                2 => match self.below(4) {
                    0 => Json::Num(self.below(1 << 40) as f64),
                    1 => Json::Num(-(self.below(1000) as f64)),
                    // Arbitrary finite doubles, subnormals and huge exponents included.
                    _ => loop {
                        let x = f64::from_bits(self.next());
                        if x.is_finite() {
                            break Json::Num(x);
                        }
                    },
                },
                3 => Json::Str(self.string()),
                4 => Json::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4)).map(|_| (self.string(), self.value(depth - 1))).collect(),
                ),
            }
        }
    }

    #[test]
    fn render_and_pretty_round_trip_generated_values() {
        for seed in 0..256 {
            let v = Draw(ns_rand::SplitMix64(seed)).value(4);
            assert_eq!(Json::parse(&v.render()).as_ref(), Ok(&v), "case seed = {seed}");
            assert_eq!(Json::parse(&v.pretty()).as_ref(), Ok(&v), "case seed = {seed}");
        }
    }

    #[test]
    fn numbers_keep_all_digits_and_whole_numbers_stay_whole() {
        assert_eq!(Json::Num(0.123456789012345).render(), "0.123456789012345");
        assert_eq!(Json::Num(1000.0).render(), "1000");
        assert_eq!(Json::from(3usize).render(), "3");
        assert_eq!(Json::from(-2.0).render(), "-2");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let v = Json::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5]);
        assert_eq!(v.render(), "[null,null,null,1.5]");
        assert_eq!(v.pretty(), "[\n  null,\n  null,\n  null,\n  1.5\n]\n");
    }

    #[test]
    fn escapes_round_trip() {
        let s = "q\"uo\\te / \n\r\t \u{0}\u{1f} é 星";
        let text = Json::from(s).render();
        assert_eq!(text, "\"q\\\"uo\\\\te / \\n\\r\\t \\u0000\\u001f é 星\"");
        assert_eq!(Json::parse(&text), Ok(Json::from(s)));
        // Escapes the writer never emits still parse.
        assert_eq!(Json::parse(r#""\u00e9\u661f\/\b\f""#), Ok(Json::from("é星/\u{8}\u{c}")));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            "[1,]",
            "{\"a\":1,}",
            "NaN",
            "[NaN]",
            "-Infinity",
            "\"abc",
            "\"abc\\",
            "\"\\u12\"",
            "{\"a\":1} x",
            "1 2",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "[1,",
            "tru",
            "1e",
            "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn literals_options_and_lookups() {
        let v = obj! {
            "name": "x",
            "n": 3u64,
            "missing": None::<f64>,
            "some": Some(0.5),
            "ok": true,
            "list": vec![1u64, 2],
            "inner": obj! { "s": String::from("t") },
        };
        assert_eq!(
            v.render(),
            r#"{"inner":{"s":"t"},"list":[1,2],"missing":null,"n":3,"name":"x","ok":true,"some":0.5}"#
        );
        assert_eq!(v["inner"]["s"].as_str(), Some("t"));
        assert_eq!(v["list"].as_arr().map(<[Json]>::len), Some(2));
        assert_eq!(v["n"].as_f64(), Some(3.0));
        assert_eq!(v["absent"]["deeper"], Json::Null);
        assert!(matches!(&v, Json::Obj(m) if m.len() == 7));
    }

    /// Every JSON artifact committed under `results/` parses, and survives
    /// a render → parse round trip unchanged.
    #[test]
    fn committed_artifacts_parse_and_re_render_to_equal_values() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(root.join("results")).expect("results/") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
        assert!(files.len() > 10, "found only {} artifacts", files.len());
        for path in files {
            let text = std::fs::read_to_string(&path).expect("read artifact");
            let v = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(matches!(v, Json::Arr(_) | Json::Obj(_)), "{}", path.display());
            assert_eq!(Json::parse(&v.render()).as_ref(), Ok(&v), "{}", path.display());
            assert_eq!(Json::parse(&v.pretty()).as_ref(), Ok(&v), "{}", path.display());
        }
    }
}
