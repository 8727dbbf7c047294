//! A small JSON value parser and the result-line writer.
//!
//! `gorder_obs::json` parses only flat objects; the benchmark also reads
//! nested documents (`BENCHMARK.json`, the result line's `metrics`
//! object, run files), so it carries this recursive-descent parser.

use gorder_obs::json::{escape, fmt_f64};

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// The string under `key`, or an error naming the key.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    /// The number under `key`, or an error naming the key.
    pub fn num_at(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key:?}"))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ASCII digits");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| self.err("bad number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("bad UTF-8"))?,
            );
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => {
                    let esc = self.b.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
            }
        }
    }
}

/// One metric as the result line carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(&m.name),
                fmt_f64(m.value),
                escape(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Parses a result line back into its parts.
pub fn parse_result_line(line: &str) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let v = Json::parse(line)?;
    let correct = matches!(v.get("correct"), Some(Json::Bool(true)));
    let attempted = v.num_at("attempted")? as u64;
    let failed = v.num_at("failed")? as u64;
    let metrics = v
        .get("metrics")
        .ok_or("missing \"metrics\"")?
        .as_obj()
        .iter()
        .map(|(name, m)| {
            Ok(Metric {
                name: name.clone(),
                value: m.num_at("value")?,
                unit: m.str_at("unit")?.to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            Json::parse(r#" {"a": [1, -2.5e1, true, null], "b": {"c": "x\"yA"}} "#).expect("valid");
        assert_eq!(v.get("a").expect("a").as_arr().len(), 4);
        assert_eq!(v.get("a").expect("a").as_arr()[1], Json::Num(-25.0));
        assert_eq!(v.get("b").expect("b").str_at("c").expect("c"), "x\"yA");
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "op_ms".into(),
                value: 1.2034,
                unit: "ms".into(),
            },
            Metric {
                name: "llc_misses".into(),
                value: 6463969.0,
                unit: "count".into(),
            },
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"op_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\"llc_misses\":{\"value\":6463969,\"unit\":\"count\"}}}"
        );
        assert_eq!(
            parse_result_line(&line).expect("parses"),
            (true, 10, 0, metrics)
        );
    }
}
