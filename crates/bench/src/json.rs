//! A minimal JSON reader for the harness's own report files.
//!
//! The repository builds offline with no external crates, so the
//! `drift` tool parses its inputs with this small
//! recursive-descent parser instead of serde. It accepts exactly the
//! JSON this repository writes (objects, arrays, strings with the
//! escapes [`crate`] emits, numbers, booleans, null) — it is a reader
//! for our own reports, not a general validator.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, which covers every value the
    /// reports emit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved; reports never rely on it).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::json::{parse, Json};
///
/// let v = parse(r#"{"rows": [1, 2.5], "ok": true}"#).unwrap();
/// assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
/// assert_eq!(v.get("rows").unwrap().as_arr().unwrap().len(), 2);
/// ```
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // `f64::from_str` happily yields ±inf for overflowing literals like
    // 1e999 (and would accept "inf"/"NaN" spellings if the scanner let
    // them through); none of those are JSON, and every report value is
    // finite, so reject non-finite results outright.
    text.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad or non-finite number {text:?} at byte {start}"))
}

/// Formats a float for report emission with enough digits to round-trip.
///
/// # Errors
///
/// NaN and ±infinity have no JSON encoding; reports must never contain
/// them, so the writer refuses rather than emitting `null` silently.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::json::fmt_num;
///
/// assert_eq!(fmt_num(2.5).unwrap(), "2.5");
/// assert!(fmt_num(f64::NAN).is_err());
/// assert!(fmt_num(f64::INFINITY).is_err());
/// ```
pub fn fmt_num(v: f64) -> Result<String, String> {
    if !v.is_finite() {
        return Err(format!("non-finite value {v} has no JSON encoding"));
    }
    // `{}` on f64 prints the shortest representation that round-trips.
    Ok(format!("{v}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Reports only emit BMP scalars; surrogates fail.
                        out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy one UTF-8 character verbatim.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_v1_bench_row() {
        let v = parse(
            r#"[
  {"name": "u32/scalar/7", "width": 32, "divisor": 7, "strategy": "mul_add_shift", "ns_per_op": 1.2345}
]"#,
        )
        .unwrap();
        let rows = v.as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("u32/scalar/7"));
        assert_eq!(rows[0].get("ns_per_op").unwrap().as_f64(), Some(1.2345));
    }

    #[test]
    fn parses_escapes_and_nested_values() {
        let v = parse(r#"{"s": "a\"b\\c\ndA", "l": [null, true, -2e3]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(
            v.get("l").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-2000.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["1e999", "-1e999", "NaN", "inf", "-inf", "Infinity"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
            assert!(parse(&format!("[{bad}]")).is_err(), "accepted [{bad}]");
        }
        // The largest finite double still parses.
        assert!(parse("1.7976931348623157e308").is_ok());
    }
}
