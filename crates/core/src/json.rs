//! The one JSON emitter (and a minimal parser) for the CLI surface.
//!
//! Every report the CLI prints is a [`Json`] value rendered through
//! one escaping-correct writer — as is the `--metrics` telemetry
//! snapshot ([`snapshot_json`]) and the catalog spill.
//!
//! Two renderers:
//! * [`Json::render`] — compact, single line.
//! * [`Json::render_pretty`] — the report layout the CLI has always
//!   printed: the root object gets one key per line (2-space indent),
//!   arrays directly under a root key get one element per line
//!   (4-space indent), and everything deeper stays compact.
//!
//! [`Json::parse`] is the inverse — enough of a reader for tests (and
//! CI) to load a rendered report or metrics snapshot and assert on it.
//! `parse(render(x))` loses only numeric formatting (fixed-precision
//! renders come back as plain numbers).
//!
//! # Non-finite floats
//!
//! JSON has no token for `NaN` or `±inf`, so the policy is explicit and
//! symmetric: the renderers emit non-finite [`Json::Num`]/[`Json::Fixed`]
//! values as `null` (a lossy but always-valid document), and the parser
//! *rejects* any numeric literal that overflows `f64` to infinity (e.g.
//! `1e999`) instead of silently materializing a non-finite value that a
//! later render would degrade to `null`. A finite `f64` round-trips
//! through `render` → `parse` bit-identically (Rust's `{}` float
//! formatting is shortest-roundtrip), which is what lets the candidate
//! catalog ([`crate::catalog`]) reload measured charges exactly.
//!
//! [`write_atomic`] is the shared durable-write primitive (temp file +
//! rename) used by both the catalog spill and the CLI's `--metrics`
//! emitter, so a crash mid-write never leaves a partial document at the
//! destination path.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON value, plus a fixed-precision number variant so renders can
/// reproduce the CLI's historical `{:.6}`/`{:.4}` formatting exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integer, rendered without a decimal point.
    Int(i64),
    /// Unsigned integer (counter values exceed `i64` in theory).
    UInt(u64),
    /// Float rendered as `{:.prec$}` — non-finite values become `null`.
    Fixed(f64, usize),
    /// Float rendered naturally — non-finite values become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `value` if present, else `null`.
    pub(crate) fn opt(value: Option<Json>) -> Json {
        value.unwrap_or(Json::Null)
    }

    // ---- rendering ----

    /// Compact single-line render.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The CLI's report layout (see module docs).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str("  ");
                    write_str(&mut out, k);
                    out.push(':');
                    match v {
                        Json::Arr(items) if !items.is_empty() => {
                            out.push_str("[\n");
                            for (j, item) in items.iter().enumerate() {
                                out.push_str("    ");
                                item.write_compact(&mut out);
                                if j + 1 < items.len() {
                                    out.push(',');
                                }
                                out.push('\n');
                            }
                            out.push_str("  ]");
                        }
                        other => other.write_compact(&mut out),
                    }
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push('}');
            }
            other => other.write_compact(&mut out),
        }
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Fixed(v, prec) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.prec$}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    // ---- accessors (for parsed values) ----

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Any numeric variant as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Fixed(v, _) | Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// Any numeric variant as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            Json::UInt(u) => Some(u),
            Json::Fixed(v, _) | Json::Num(v) => {
                (v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64).then_some(v as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    // ---- parsing ----

    /// Parses a JSON document (numbers come back as [`Json::Num`] or
    /// [`Json::Int`]; trailing garbage is an error).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

/// Escapes and writes one JSON string (quotes, backslashes, control
/// characters — the escaping every emitter now goes through).
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

/// Containers a document may nest: the recursion below is bounded by
/// it, so a hostile file is an error, not a stack overflow (catalog
/// documents nest 4 deep, reports fewer than 8).
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    let value: f64 = text
        .parse()
        .map_err(|e| format!("invalid number {text:?}: {e}"))?;
    // JSON has no non-finite tokens; a literal that overflows f64 (e.g.
    // `1e999` → inf) must be an error, not a silent infinity that the
    // next render would degrade to `null` (see the module policy).
    if !value.is_finite() {
        return Err(format!("number {text:?} overflows f64 at byte {start}"));
    }
    Ok(Json::Num(value))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        *pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// Renders an [`mv_obs::Snapshot`] as the versioned `--metrics` JSON
/// schema: counters and histograms keyed by name, spans as an array of
/// `{path,count,total_ns,max_ns}`, and the bounded event tail.
pub fn snapshot_json(snapshot: &mv_obs::Snapshot) -> Json {
    let counters = Json::Obj(
        snapshot
            .counters
            .iter()
            .map(|&(name, v)| (name.to_string(), Json::UInt(v)))
            .collect(),
    );
    let histograms = Json::Obj(
        snapshot
            .histograms
            .iter()
            .map(|h| {
                let buckets = Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(upper, n)| {
                            Json::Arr(vec![upper.map_or(Json::Null, Json::UInt), Json::UInt(n)])
                        })
                        .collect(),
                );
                (
                    h.name.to_string(),
                    Json::obj(vec![
                        ("count", Json::UInt(h.count)),
                        ("sum", Json::UInt(h.sum)),
                        ("buckets", buckets),
                    ]),
                )
            })
            .collect(),
    );
    let spans = Json::Arr(
        snapshot
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("path", Json::str(s.path.clone())),
                    ("count", Json::UInt(s.count)),
                    ("total_ns", Json::UInt(s.total_ns)),
                    ("max_ns", Json::UInt(s.max_ns)),
                ])
            })
            .collect(),
    );
    let events = Json::Arr(
        snapshot
            .events
            .iter()
            .map(|e| {
                let fields = Json::Obj(
                    e.fields
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                        .collect(),
                );
                Json::obj(vec![
                    ("seq", Json::UInt(e.seq)),
                    ("kind", Json::str(e.kind)),
                    ("fields", fields),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("version", Json::UInt(mv_obs::snapshot::SCHEMA_VERSION)),
        ("counters", counters),
        ("histograms", histograms),
        ("spans", spans),
        ("events", events),
        ("events_seen", Json::UInt(snapshot.events_seen)),
    ])
}

/// Durably replaces the file at `path` with `contents`: writes a
/// sibling temp file, then renames it over the destination. Rename is
/// atomic on POSIX filesystems, so a reader (or a restart after a
/// mid-write crash) sees either the old document or the new one in
/// full — never a truncated prefix. The temp file carries a
/// `.tmp.<pid>` suffix beside the destination; a crash can strand one,
/// which the next successful write of the same path replaces.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("no file name in {}", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Leave no temp droppings behind a failed rename.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\rf\u{0007}g❦";
        let rendered = Json::str(nasty).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn fixed_precision_matches_historical_format() {
        assert_eq!(Json::Fixed(1.5, 6).render(), "1.500000");
        assert_eq!(Json::Fixed(0.25, 4).render(), "0.2500");
        assert_eq!(Json::Fixed(f64::NAN, 6).render(), "null");
        assert_eq!(Json::Fixed(f64::INFINITY, 6).render(), "null");
    }

    #[test]
    fn pretty_layout_expands_root_keys_and_arrays() {
        let doc = Json::obj(vec![
            ("scenario", Json::str("s")),
            (
                "epochs",
                Json::Arr(vec![
                    Json::obj(vec![("epoch", Json::Int(0))]),
                    Json::obj(vec![("epoch", Json::Int(1))]),
                ]),
            ),
            ("commitment", Json::Null),
        ]);
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"scenario\":\"s\",\n  \"epochs\":[\n    {\"epoch\":0},\n    \
             {\"epoch\":1}\n  ],\n  \"commitment\":null\n}"
        );
    }

    #[test]
    fn parse_handles_numbers_and_nesting() {
        let doc = Json::parse(
            "{\"a\": [1, -2.5, 1e3], \"b\": {\"c\": true, \"d\": null}, \"e\": 18446744073709551615}",
        )
        .unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn parse_bounds_nesting_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(128)).is_ok());
        let err = Json::parse(&nested(129)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(129) + "1" + &"}".repeat(129);
        assert!(Json::parse(&objects).is_err());
        // The hostile catalog: never closed, 300 000 deep.
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
    }

    #[test]
    fn parse_rejects_nonfinite_overflow() {
        // `1e999` is a syntactically valid JSON number that overflows
        // f64 to infinity; accepting it would smuggle a non-finite
        // value past the render-side `null` policy.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert!(Json::parse("{\"a\": [0.5, 1e309]}").is_err());
        // The largest finite f64 still parses.
        let max = format!("{:e}", f64::MAX);
        assert_eq!(Json::parse(&max).unwrap().as_f64(), Some(f64::MAX));
    }

    #[test]
    fn nonfinite_renders_as_null_and_round_trips_to_null() {
        // The documented policy end to end: a non-finite Num renders as
        // `null`, and parsing that render yields Json::Null — never a
        // non-finite number.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rendered = Json::Num(v).render();
            assert_eq!(rendered, "null");
            assert_eq!(Json::parse(&rendered), Ok(Json::Null));
        }
    }

    #[test]
    fn finite_floats_round_trip_bit_identically() {
        // Shortest-roundtrip `{}` formatting: render → parse is exact
        // for finite f64, the invariant the candidate catalog's
        // bit-identical reload rests on.
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            123456.789e-30,
        ] {
            let rendered = Json::Num(v).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} vs {back:?}");
        }
    }

    #[test]
    fn write_atomic_replaces_whole_documents() {
        let dir = std::env::temp_dir().join(format!("mvcloud-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        // No temp droppings after successful writes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
