//! A minimal recursive-descent JSON parser for reading back the
//! documents this crate emits (`figures --json` dumps, analysis
//! reports) in the `explain` differential subcommand.
//!
//! The workspace deliberately carries no JSON dependency, so the parser
//! lives here: full JSON syntax (objects, arrays, strings with escapes,
//! numbers, booleans, null), no streaming — documents are a few
//! megabytes at most. Nesting is bounded by [`MAX_DEPTH`], so a damaged
//! or hostile file is an error, never a stack overflow.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// crate writes nest fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (adequate for the u64 counters we
    /// read back: they are far below 2^53 in practice).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is not preserved (lookups only).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member of an object by key, `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Element of an array by index.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The array items, empty for non-arrays.
    pub fn items(&self) -> &[JsonValue] {
        match self {
            JsonValue::Arr(items) => items,
            _ => &[],
        }
    }

    /// Numeric value, `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric value truncated to `u64` (counters), `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|x| *x >= 0.0).map(|x| x as u64)
    }

    /// String value, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Walks a dotted path of object keys: `v.path(&["metrics", "mmu"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&JsonValue> {
        let mut cur = self;
        for key in keys {
            cur = cur.get(key)?;
        }
        Some(cur)
    }
}

/// Parses a JSON document. Trailing whitespace is allowed; trailing
/// non-whitespace content is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&b| b as char),
            *pos
        )),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("malformed \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not reassembled; the
                        // documents we read are ASCII counters/names.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!(
                            "invalid escape {:?} at byte {}",
                            other.map(|&b| b as char),
                            *pos
                        ))
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let s = &bytes[*pos..];
                let ch_len = match s[0] {
                    b if b < 0x80 => 1,
                    b if b >= 0xf0 => 4,
                    b if b >= 0xe0 => 3,
                    _ => 2,
                };
                let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push_str(chunk);
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PrefetcherKind, RunSpec};
    use morrigan_sim::{SimConfig, SystemConfig};
    use morrigan_workloads::ServerWorkloadConfig;
    use std::sync::Arc;

    fn depth(v: &JsonValue) -> usize {
        match v {
            JsonValue::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            JsonValue::Obj(map) => 1 + map.values().map(depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// What `figures --json --interval` and `figures --explain` write for
    /// one small run.
    fn emitted_documents() -> [String; 2] {
        let cfg = ServerWorkloadConfig::qmm_like("jsonval-doc", 5);
        let sim = SimConfig {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
        };
        let spec = RunSpec::server(&cfg, SystemConfig::default(), sim, PrefetcherKind::Morrigan);
        let record = spec.execute_analyzed(Some(10_000));
        let report = record
            .analysis
            .as_ref()
            .expect("analysis attached")
            .to_json();
        let figures =
            crate::json::figures_document(&[("fig02".to_string(), vec![Arc::new(record)])]);
        [figures, report]
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": null, "e": true}"#).unwrap();
        assert_eq!(v.path(&["a"]).unwrap().idx(1).unwrap().as_f64(), Some(2.5));
        assert_eq!(v.path(&["b", "c"]).unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(300_000)).expect_err("unbounded arrays");
        assert!(err.contains("nesting"), "{err}");
        assert!(parse(&"{\"a\": ".repeat(300_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(depth(&parse(&at_limit).expect("at the limit")), MAX_DEPTH);
        assert!(parse(&format!("[{at_limit}]")).is_err());
    }

    #[test]
    fn emitted_documents_parse_and_their_prefixes_do_not() {
        for doc in emitted_documents() {
            let doc = doc.trim_end();
            let nesting = depth(&parse(doc).expect("emitted document parses"));
            assert!(nesting * 4 <= MAX_DEPTH, "nests {nesting} levels");
            for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
                assert!(parse(&doc[..cut]).is_err(), "{cut}-byte prefix parsed");
            }
        }
    }

    #[test]
    fn round_trips_a_record_shaped_document() {
        let doc = r#"{"figures": [{"figure": "fig02", "records": [
            {"workload": {"name": "w", "class": "server"}, "prefetcher": "morrigan",
             "metrics": {"instructions": 60000, "cycles": 90000, "ipc": 0.6666}}]}]}"#;
        let v = parse(doc).unwrap();
        let record = v
            .path(&["figures"])
            .unwrap()
            .idx(0)
            .unwrap()
            .get("records")
            .unwrap()
            .idx(0)
            .unwrap();
        assert_eq!(
            record.path(&["workload", "name"]).unwrap().as_str(),
            Some("w")
        );
        assert_eq!(
            record.path(&["metrics", "instructions"]).unwrap().as_u64(),
            Some(60000)
        );
    }
}
