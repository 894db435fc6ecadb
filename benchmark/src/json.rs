//! A JSON value, its writer and its reader: enough for the result line,
//! `results.json`, the Chrome traces and reading `BENCHMARK.json` back.

use std::fmt::Write as _;

#[derive(Debug, Clone, Default, PartialEq)]
pub enum Json {
    #[default]
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order: the files are read by people too.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// One line, no spaces after separators inside nested values.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented; arrays and objects of scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                let indent = indent.filter(|_| !items.iter().all(Json::is_scalar));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                close(out, ']', items.is_empty(), indent, depth);
            }
            Json::Obj(pairs) => {
                let indent = indent.filter(|_| !pairs.iter().all(|(_, v)| v.is_scalar()));
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    separate(out, i, indent, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                close(out, '}', pairs.is_empty(), indent, depth);
            }
        }
    }
}

fn separate(out: &mut String, index: usize, indent: Option<usize>, depth: usize) {
    if index > 0 {
        out.push(',');
    }
    match indent {
        Some(width) => {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
        None if index > 0 => out.push(' '),
        None => {}
    }
}

fn close(out: &mut String, bracket: char, empty: bool, indent: Option<usize>, depth: usize) {
    if let (Some(width), false) = (indent, empty) {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(bracket);
}

/// Shortest decimal that reads back to the same `f64` — every digit the
/// measurement has. JSON has no NaN or infinity; they become `null`.
fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first thing that is not JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_space();
    if p.at == p.bytes.len() {
        Ok(value)
    } else {
        Err(p.fail("trailing characters"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self
                .sequence(b'}', |p| {
                    p.skip_space();
                    let key = p.string()?;
                    p.skip_space();
                    if !p.eat(":") {
                        return Err(p.fail("expected ':'"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.sequence(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.fail("unexpected end")),
        }
    }

    /// `[` item `,` item … `]` (or braces), the opening bracket at `at`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(c) if *c == close => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => return Err(self.fail("expected ',' or closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.fail("expected string"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let c = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.fail("unterminated string"))?;
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8")),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.fail("bad escape"))?;
                    self.at += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Json::Num(1.2034).compact(), "1.2034");
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::from(428_202usize).compact(), "428202");
        assert_eq!(Json::Num(-3.0).compact(), "-3");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\u{1}é");
        assert_eq!(s.compact(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse(&s.compact()).unwrap(), s);
    }

    #[test]
    fn the_result_line_round_trips() {
        let line = obj([
            ("correct", true.into()),
            ("attempted", 1000usize.into()),
            ("failed", 0usize.into()),
            (
                "metrics",
                obj([(
                    "latency_ms",
                    obj([("value", 1.2034.into()), ("unit", "ms".into())]),
                )]),
            ),
        ]);
        let text = line.compact();
        assert_eq!(
            text,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
        assert!(!text.contains('\n'));
        let back = parse(&text).unwrap();
        assert_eq!(back, line);
        let value = back
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .and_then(|m| m.get("value"));
        assert_eq!(value.and_then(Json::as_f64), Some(1.2034));
    }

    #[test]
    fn pretty_output_parses_back_and_keeps_scalar_rows_on_one_line() {
        let doc = obj([
            ("paths", Json::Arr(vec!["benchmark".into()])),
            (
                "rows",
                Json::Arr(vec![obj([("name", "a".into()), ("bound", 0.1.into())])]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\"paths\": [\"benchmark\"]"), "{text}");
        assert!(
            text.contains("    {\"name\": \"a\", \"bound\": 0.1}"),
            "{text}"
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "\"open",
            "{\"a\": tru}",
            "1 2",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
