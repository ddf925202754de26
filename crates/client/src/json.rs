//! The workspace's one JSON reader.
//!
//! The workspace is offline (no serde). This small recursive-descent
//! parser reads the one-line serve responses here and, re-exported as
//! `splu_bench::json`, the run reports and Chrome traces the schema
//! validators check.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// String, escapes decoded.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, key-ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience: the `"status"` field, or `"?"` when absent.
    pub fn status(&self) -> &str {
        self.get("status").and_then(Json::as_str).unwrap_or("?")
    }

    /// Convenience: the `"kind"` field, or `""` when absent.
    pub fn kind(&self) -> &str {
        self.get("kind").and_then(Json::as_str).unwrap_or("")
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = value(b, &mut pos)?;
    ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(_) => number(b, pos),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {s:?} at byte {start}"))
}

/// The four hex digits of a `\u` escape whose `u` is at `pos`, as a UTF-16
/// code unit; `pos` moves to the last digit.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b.get(*pos + 1..*pos + 5);
    let hex = hex.ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    let unit = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
    *pos += 4;
    Ok(unit)
}

/// Reads a string. Each run of bytes up to the next quote, backslash or
/// control byte is copied as one slice, validated once, so a document
/// parses in linear time. A `\uD8xx\uDCxx` surrogate pair decodes to one
/// character; a lone surrogate to U+FFFD.
fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote, checked by the caller
    let mut out = String::new();
    loop {
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .ok_or_else(|| "unterminated string".to_string())?;
        let text = std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?;
        out.push_str(text);
        *pos += run;
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = hex4(b, pos)?;
                        let low_follows = b.get(*pos + 1..*pos + 3) == Some(b"\\u");
                        if (0xd800..0xdc00).contains(&code) && low_follows {
                            let mut next = *pos + 2;
                            let low = hex4(b, &mut next)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos = next;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            _ => {
                return Err(format!(
                    "unescaped control character at byte {pos}",
                    pos = *pos
                ))
            }
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1;
    let mut items = Vec::new();
    ws(b, pos);
    if matches!(b.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1;
    let mut map = BTreeMap::new();
    ws(b, pos);
    if matches!(b.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        ws(b, pos);
        if !matches!(b.get(*pos), Some(b'"')) {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = string(b, pos)?;
        ws(b, pos);
        if !matches!(b.get(*pos), Some(b':')) {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        map.insert(key, value(b, pos)?);
        ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_serve_response() {
        let v = parse(
            r#"{"id":7,"op":"solve","session":"s1","status":"ok","seconds":0.00123,"residual":1.2e-15,"x_hash":"0xdeadbeefcafef00d","nested":[1,2,{"a":true}],"none":null}"#,
        )
        .unwrap();
        assert_eq!(v.status(), "ok");
        assert_eq!(v.kind(), "");
        assert_eq!(v.get("id").and_then(Json::as_num), Some(7.0));
        assert_eq!(
            v.get("x_hash").and_then(Json::as_str),
            Some("0xdeadbeefcafef00d")
        );
        assert_eq!(v.get("none"), Some(&Json::Null));
        let nested = v.get("nested").and_then(Json::as_arr).unwrap();
        assert_eq!(nested.len(), 3);
        assert_eq!(nested[1].as_num(), Some(2.0));
        assert_eq!(nested[2].get("a").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::as_arr), None);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\n\"y\"", true, null], "b": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(v.get("b"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn decodes_escapes_and_rejects_garbage() {
        let v = parse(r#"{"error":"a \"quoted\" path\nA"}"#).unwrap();
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("a \"quoted\" path\nA")
        );
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#"{"a":01x}"#).is_err());
        assert!(parse("").is_err());
        for bad in ["[1,]", "{\"a\" 1}", "[1] x", "\"\\q\"", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
