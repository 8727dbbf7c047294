//! Hand-rolled JSON machinery for the one-object-per-line surfaces
//! (`--stats`, the trace sink). No serde: the grammar these lines use is
//! tiny (strings, numbers, booleans, null, flat arrays) and the writer
//! controls key order, which the golden-schema tests pin. [`JsonObject`]
//! writes a line; [`parse_object`] reads one back and [`Fields`] decodes
//! its values.

use std::collections::BTreeMap;

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters. Everything else passes through verbatim (UTF-8 is legal
/// in JSON strings).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value. JSON has no NaN/inf, so non-finite
/// values become `null` — a NaN-time cell must still produce a parseable
/// trace line (that is the whole point of recording it).
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        // Normalize -0.0 (e.g. an empty `Iterator::sum::<f64>()`, which
        // folds from -0.0) so zeros are textually identical everywhere.
        "0".to_string()
    } else if v.is_finite() {
        // Rust's float Display always yields a valid JSON number for
        // finite values (no exponent, always a leading digit).
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// An insertion-ordered JSON object writer. Keys appear exactly in call
/// order — the property the golden key-sequence tests lock down.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Appends a string-or-null field.
    pub fn opt_str(self, k: &str, v: Option<&str>) -> Self {
        match v {
            Some(v) => self.str(k, v),
            None => self.null(k),
        }
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends an unsigned-integer-or-null field.
    pub fn opt_u64(self, k: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.u64(k, v),
            None => self.null(k),
        }
    }

    /// Appends a float field (`null` when non-finite).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&fmt_f64(v));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends an explicit `null` field.
    pub fn null(mut self, k: &str) -> Self {
        self.key(k);
        self.buf.push_str("null");
        self
    }

    /// Appends an array of floats (non-finite entries become `null`).
    pub fn f64_array(mut self, k: &str, vs: &[f64]) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&fmt_f64(*v));
        }
        self.buf.push(']');
        self
    }

    /// Appends an array of strings (each escaped).
    pub fn str_array(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push('"');
            self.buf.push_str(&escape(v));
            self.buf.push('"');
        }
        self.buf.push(']');
        self
    }

    /// Appends an array of unsigned integers.
    pub fn u64_array(mut self, k: &str, vs: &[u64]) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Strict parser for one JSON object line as the writers here emit it:
/// no whitespace padding, string keys, values that are strings, numbers,
/// booleans, `null`, or flat arrays thereof. Returns the top-level keys
/// mapped to their **raw value text**; rejects trailing garbage, raw
/// control characters, bad escapes, and malformed numbers.
///
/// Every trace line is read through it, by the one trace reader
/// ([`crate::trace::read_jsonl`]) behind `gorder-cli validate-trace`,
/// the gate baseline and sweep resume, so "parses here" means "parses
/// everywhere downstream".
pub fn parse_object(line: &str) -> Result<BTreeMap<String, String>, String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err(&self, what: &str) -> String {
            format!("{what} at byte {}", self.i)
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", c as char)))
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.i;
            loop {
                match self.b.get(self.i) {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => break,
                    Some(b'\\') => {
                        match self.b.get(self.i + 1) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 2;
                            }
                            Some(b'u') => {
                                let hex = self.b.get(self.i + 2..self.i + 6);
                                let ok =
                                    hex.is_some_and(|h| h.iter().all(|c| c.is_ascii_hexdigit()));
                                if !ok {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 6;
                            }
                            _ => return Err(self.err("bad escape")),
                        };
                    }
                    Some(c) if *c < 0x20 => return Err(self.err("raw control char")),
                    Some(_) => self.i += 1,
                }
            }
            let s = String::from_utf8(self.b[start..self.i].to_vec())
                .map_err(|_| self.err("non-utf8"))?;
            self.eat(b'"')?;
            Ok(s)
        }
        fn number(&mut self) -> Result<(), String> {
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            let digits = |p: &mut Self| {
                let s = p.i;
                while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                    p.i += 1;
                }
                p.i > s
            };
            if !digits(self) {
                return Err(self.err("expected digits"));
            }
            if self.b.get(self.i) == Some(&b'.') {
                self.i += 1;
                if !digits(self) {
                    return Err(self.err("expected fraction digits"));
                }
            }
            if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                if !digits(self) {
                    return Err(self.err("expected exponent digits"));
                }
            }
            Ok(())
        }
        fn value(&mut self) -> Result<String, String> {
            let start = self.i;
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.string()?;
                }
                Some(b't') if self.b[self.i..].starts_with(b"true") => self.i += 4,
                Some(b'f') if self.b[self.i..].starts_with(b"false") => self.i += 5,
                Some(b'n') if self.b[self.i..].starts_with(b"null") => self.i += 4,
                Some(b'[') => {
                    // Flat array of scalar values, no whitespace —
                    // matching the writer.
                    self.i += 1;
                    if self.b.get(self.i) != Some(&b']') {
                        loop {
                            self.value()?;
                            match self.b.get(self.i) {
                                Some(b',') => self.i += 1,
                                Some(b']') => break,
                                _ => return Err(self.err("expected ',' or ']'")),
                            }
                        }
                    }
                    self.i += 1;
                }
                _ => self.number()?,
            }
            String::from_utf8(self.b[start..self.i].to_vec()).map_err(|_| self.err("non-utf8"))
        }
    }
    let mut p = P {
        b: line.as_bytes(),
        i: 0,
    };
    let mut obj = BTreeMap::new();
    p.eat(b'{')?;
    if p.b.get(p.i) != Some(&b'}') {
        loop {
            let key = p.string()?;
            p.eat(b':')?;
            let val = p.value()?;
            obj.insert(key, val);
            match p.b.get(p.i) {
                Some(b',') => p.i += 1,
                Some(b'}') => break,
                _ => return Err(p.err("expected ',' or '}'")),
            }
        }
    }
    p.eat(b'}')?;
    if p.i != p.b.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(obj)
}

/// Decodes the **raw value text** of a JSON string (as [`parse_object`]
/// returns it: quotes included) back into the string it encodes.
/// Rejects values that are not strings.
pub fn parse_string(raw: &str) -> Result<String, String> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("{raw:?} is not a JSON string"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{0008}'),
            Some('f') => out.push('\u{000c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in {raw:?}"))?;
                // The writer only emits \u escapes for control chars, so
                // surrogate pairs never occur; reject them rather than
                // silently mangling.
                let c = char::from_u32(code).ok_or_else(|| format!("bad \\u escape in {raw:?}"))?;
                out.push(c);
            }
            _ => return Err(format!("bad escape in {raw:?}")),
        }
    }
    Ok(out)
}

/// Decodes the raw value text of a flat JSON array of strings (e.g.
/// `["a","b"]`, as [`parse_object`] returns it) into its elements.
pub fn parse_string_array(raw: &str) -> Result<Vec<String>, String> {
    let inner = raw
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("{raw:?} is not a JSON array"))?;
    let mut out = Vec::new();
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            return Err(format!("non-string element in {raw:?}"));
        }
        let start = i;
        i += 1;
        while i < bytes.len() && bytes[i] != b'"' {
            i += if bytes[i] == b'\\' { 2 } else { 1 };
        }
        if i >= bytes.len() {
            return Err(format!("unterminated string in {raw:?}"));
        }
        i += 1; // past the closing quote
        out.push(parse_string(&inner[start..i])?);
        match bytes.get(i) {
            None => break,
            Some(b',') => i += 1,
            _ => return Err(format!("expected ',' in {raw:?}")),
        }
    }
    Ok(out)
}

/// Typed getters over one parsed line — the raw-value map
/// [`parse_object`] returns. Each getter inverts the [`JsonObject`]
/// method of the same name; errors name the key.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields(BTreeMap<String, String>);

impl Fields {
    /// Parses one object line with [`parse_object`].
    pub fn parse(line: &str) -> Result<Fields, String> {
        parse_object(line).map(Fields)
    }

    /// The raw value text of `key`.
    pub(crate) fn raw(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key:?}"))
    }

    /// The keys present, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `get`'s reading of `key`, or `None` when the key is absent — for
    /// lines that omit an optional key instead of writing `null`.
    pub fn if_present<T>(
        &self,
        key: &str,
        get: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.0.contains_key(key) {
            get(self, key).map(Some)
        } else {
            Ok(None)
        }
    }

    fn non_null(&self, key: &str) -> Result<Option<&str>, String> {
        self.raw(key).map(|raw| (raw != "null").then_some(raw))
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<String, String> {
        parse_string(self.raw(key)?).map_err(|e| format!("{key}: {e}"))
    }

    /// A string-or-null field.
    pub fn opt_str(&self, key: &str) -> Result<Option<String>, String> {
        self.non_null(key)?
            .map(|raw| parse_string(raw).map_err(|e| format!("{key}: {e}")))
            .transpose()
    }

    /// An unsigned integer field.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        parse_u64(key, self.raw(key)?)
    }

    /// An unsigned-integer-or-null field.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.non_null(key)?
            .map(|raw| parse_u64(key, raw))
            .transpose()
    }

    /// A float field that must be finite (`null` is rejected).
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        let raw = self.raw(key)?;
        raw.parse()
            .map_err(|_| format!("{key}: not a finite number: {raw}"))
    }

    /// A float field where `null` — what [`fmt_f64`] writes for a
    /// non-finite value — reads back as NaN.
    pub fn f64_or_nan(&self, key: &str) -> Result<f64, String> {
        if self.raw(key)? == "null" {
            Ok(f64::NAN)
        } else {
            self.f64(key)
        }
    }

    /// A boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.raw(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            raw => Err(format!("{key}: not a boolean: {raw}")),
        }
    }

    /// A flat array of unsigned integers.
    pub fn u64_array(&self, key: &str) -> Result<Vec<u64>, String> {
        let raw = self.raw(key)?;
        let inner = raw
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| format!("{key}: not an array: {raw}"))?;
        if inner.is_empty() {
            return Ok(Vec::new());
        }
        inner.split(',').map(|v| parse_u64(key, v)).collect()
    }

    /// A flat array of strings.
    pub fn str_array(&self, key: &str) -> Result<Vec<String>, String> {
        parse_string_array(self.raw(key)?).map_err(|e| format!("{key}: {e}"))
    }
}

fn parse_u64(key: &str, raw: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|_| format!("{key}: not an unsigned integer: {raw}"))
}

/// Extracts the top-level key sequence (insertion order) from one JSON
/// object line — the shape the golden key-order tests compare against.
pub fn top_level_keys(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                if depth == 1 && bytes.get(j + 1) == Some(&b':') {
                    keys.push(line[start..j].to_string());
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("tab\there"), "tab\\u0009here");
        assert_eq!(escape("uni\u{00e9}"), "uni\u{00e9}");
    }

    #[test]
    fn fmt_f64_null_for_non_finite() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(-0.0), "0", "negative zero is normalized");
        assert_eq!(
            fmt_f64(std::iter::empty::<f64>().sum()),
            "0",
            "empty f64 sum is -0.0"
        );
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn object_builder_roundtrips() {
        let line = JsonObject::new()
            .str("name", "a\"b")
            .u64("n", 42)
            .f64("t", 1.25)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .null("none")
            .f64_array("xs", &[1.0, f64::INFINITY])
            .u64_array("ks", &[1, 2])
            .finish();
        let obj = parse_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert_eq!(obj["name"], "\"a\\\"b\"");
        assert_eq!(obj["n"], "42");
        assert_eq!(obj["t"], "1.25");
        assert_eq!(obj["bad"], "null");
        assert_eq!(obj["ok"], "true");
        assert_eq!(obj["none"], "null");
        assert_eq!(obj["xs"], "[1,null]");
        assert_eq!(obj["ks"], "[1,2]");
        assert_eq!(
            top_level_keys(&line),
            vec!["name", "n", "t", "bad", "ok", "none", "xs", "ks"]
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_object("{\"a\":1}x").is_err());
        assert!(parse_object("{\"a\":01b}").is_err());
        assert!(parse_object("{\"a\":}").is_err());
        assert!(
            parse_object("{\"a\" : 1}").is_err(),
            "no-whitespace grammar"
        );
        assert!(parse_object("{\"a\":\"\u{0007}\"}").is_err());
        assert!(parse_object("nope").is_err());
    }

    #[test]
    fn parser_accepts_empty_object() {
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn string_roundtrips_through_raw_value_text() {
        for s in ["plain", "a\"b\\c", "tab\there", "comma,comma", ""] {
            let line = JsonObject::new().str("k", s).finish();
            let obj = parse_object(&line).unwrap();
            assert_eq!(parse_string(&obj["k"]).unwrap(), s);
        }
        assert!(parse_string("42").is_err());
        assert!(parse_string("\"bad\\x\"").is_err());
    }

    #[test]
    fn string_array_roundtrips_through_raw_value_text() {
        let cells = vec!["a".to_string(), "b\"c".to_string(), String::new()];
        let line = JsonObject::new().str_array("cells", &cells).finish();
        let obj = parse_object(&line).unwrap();
        assert_eq!(parse_string_array(&obj["cells"]).unwrap(), cells);
        assert_eq!(parse_string_array("[]").unwrap(), Vec::<String>::new());
        assert!(parse_string_array("[1,2]").is_err());
        assert!(parse_string_array("\"x\"").is_err());
    }

    #[test]
    fn key_extractor_handles_strings_and_arrays() {
        let keys = top_level_keys(r#"{"a":"x:y","b":[1,2],"c":{"inner":1},"d":null}"#);
        assert_eq!(keys, vec!["a", "b", "c", "d"]);
    }
}
