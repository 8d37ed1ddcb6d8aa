//! A small JSON reader and the two rendering helpers the outputs need.
//! The workspace's `serde` is an offline marker stub, so the manifest,
//! the golden file and the summaries are read with this instead.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep their keys sorted; key order never
/// matters to a reader here. Duplicate keys are an error, so that "a name
/// is used once" can be checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Renders the value back to JSON text on one line.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => num(*n),
            Value::Str(s) => quote(s),
            Value::Arr(a) => {
                let items: Vec<String> = a.iter().map(Value::render).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Obj(m) => {
                let items: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.render()))
                    .collect();
                format!("{{{}}}", items.join(", "))
            }
        }
    }
}

/// Nesting deeper than this is refused (the parser recurses).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.src.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.at)
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.src.get(self.at) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    let v = self.value(depth + 1)?;
                    if map.insert(key.clone(), v).is_some() {
                        return Err(self.err(&format!("duplicate key \"{key}\"")));
                    }
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(map));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut arr = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(arr));
                }
                loop {
                    arr.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(arr));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.at;
                while matches!(
                    self.src.get(self.at),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.at += 1;
                }
                std::str::from_utf8(&self.src[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|n| n.is_finite())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.at) else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.src.get(self.at) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }
}

/// Renders a string as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a number with all its digits (`{}` on an `f64` is the shortest
/// text that parses back to the same value); JSON has no NaN or infinity,
/// so those become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_benchmark_reads() {
        let v = parse(
            r#"{"command": ["bash", "benchmark/run.sh"], "run_seconds": 12,
                "x": {"bound": 0.1, "ok": true, "none": null, "neg": -1.5e3},
                "s": "a\"b\\cA\n"}"#,
        )
        .unwrap();
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(12.0));
        let cmd = v.get("command").and_then(Value::as_arr).unwrap();
        assert_eq!(cmd[1].as_str(), Some("benchmark/run.sh"));
        let x = v.get("x").unwrap();
        assert_eq!(x.get("bound").and_then(Value::as_f64), Some(0.1));
        assert_eq!(x.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(x.get("none"), Some(&Value::Null));
        assert_eq!(x.get("neg").and_then(Value::as_f64), Some(-1500.0));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\cA\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} x",
            "\"open",
            "{\"a\":1,\"a\":2}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn rendering_round_trips() {
        let s = "tab\there \"quoted\" back\\slash\u{1}";
        assert_eq!(parse(&quote(s)).unwrap(), Value::Str(s.into()));
        for v in [0.0, 1.5, 415_123.456_789_012, 1e-9, 3.0e15] {
            assert_eq!(parse(&num(v)).unwrap(), Value::Num(v));
        }
        assert_eq!(num(f64::NAN), "0");
        let doc = parse(r#"{"a": [1, 2.5, "x", null, true], "b": {"c": -3}}"#).unwrap();
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }
}
