//! JSON-lines schema validation for trace files.
//!
//! The tier-2 trace smoke (`scripts/tier2.sh` → `trace_validate`) and the
//! crate's own round-trip tests need to check emitted traces against the
//! schema documented in DESIGN.md §11 without a JSON dependency, so this
//! module carries a minimal recursive-descent JSON parser (objects, arrays,
//! strings with escapes, numbers, booleans, null) and the per-line checks.

use std::collections::BTreeSet;

/// A parsed JSON value (just enough structure for validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object as an ordered key/value list (duplicate keys preserved).
    Object(Vec<(String, Json)>),
    /// Array.
    Array(Vec<Json>),
    /// String.
    Str(String),
    /// Number (all JSON numbers parse to f64).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    /// The key/value pairs if this is an object.
    pub(crate) fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(kv) => Some(kv),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest array/object nesting `parse_json` accepts. Each level is a
/// stack frame; the exporter and the benchmark's output nest at most 5.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            kv.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(kv));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(self.err("bad \\u escape"));
                            }
                            let code = hex.iter().fold(0, |code, &h| {
                                code * 16 + char::from(h).to_digit(16).expect("hex digit")
                            });
                            // Surrogate pairs are not emitted by our exporter;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: validate at most its four
                    // bytes, not the rest of the document per character.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(chunk) {
                        Ok(s) => s,
                        Err(e) => std::str::from_utf8(&chunk[..e.valid_up_to()])
                            .expect("validated prefix"),
                    };
                    let ch = valid.chars().next().ok_or_else(|| self.err("invalid UTF-8"))?;
                    if (ch as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

/// Parse a complete JSON document (used by the validator and the Chrome
/// export test). Rejects trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

/// The documented `cat.name` identifiers of DESIGN.md §11. The validator
/// itself is name-agnostic (new subsystems may emit new events before the
/// docs catch up); this registry is for smoke tests that want to assert a
/// specific producer ran — e.g. that a rescue run emitted `scf.rescue`.
pub(crate) const KNOWN_EVENTS: &[&str] = &[
    "scf.setup",
    "scf.grid_build",
    "scf.ao_eval",
    "scf.iteration",
    "scf.xc",
    "scf.diis",
    "scf.density",
    "scf.rescue",
    "scf.non_finite",
    "chem.shells",
    "eri.screen_pairs",
    "eri.batch_quartets",
    "eri.one_electron",
    "linalg.orthogonalizer",
    "linalg.eigh",
    "fock.screen",
    "fock.launch",
    "fock.assemble",
    "dist.build_jk_ft",
    "dist.share",
    "ensemble.run",
    "ensemble.iteration",
    "ensemble.launch",
    "ensemble.member",
    "compiler.tune_class",
    "compiler.kernel_cache.hits",
    "compiler.kernel_cache.tunes",
    "compiler.kernel_cache.duplicates_avoided",
    "server.run",
    "server.admission",
    "server.state",
    "server.quantum",
    "server.preempt",
    "server.fault",
    "server.screen_cache.hits",
    "server.screen_cache.evictions",
    "job.submit",
    "job.start",
    "job.retry",
    "job.outcome",
    "store.append",
    "store.checkpoint",
    "store.artifact",
    "store.quarantine",
    "store.truncate",
    "store.crash",
    "recover.replay",
    "recover.serve",
    "clock.iteration",
    "clock.recovery",
    "kernel.dispatch",
    "gemm.pack",
    "gemm.microkernel",
];

/// Whether a `cat.name` identifier is part of the documented schema.
pub fn is_known_event(name: &str) -> bool {
    KNOWN_EVENTS.contains(&name)
}

/// What a validated JSON-lines trace contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Span events.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter events.
    pub counters: usize,
    /// Distinct `cat.name` identifiers and bare names seen.
    pub names: BTreeSet<String>,
    /// Events recorded per the meta footer.
    pub recorded: u64,
    /// Events dropped by ring overflow per the meta footer.
    pub dropped: u64,
}

fn require_num(obj: &Json, key: &str, line: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("line {line}: missing numeric field '{key}'"))
}

fn require_str<'a>(obj: &'a Json, key: &str, line: usize) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {line}: missing string field '{key}'"))
}

/// Validate a JSON-lines trace file against the DESIGN.md §11 schema:
/// every line is a JSON object whose `type` is one of
/// `span`/`instant`/`counter`/`meta`; spans carry `cat`, `name`, `ts_us`,
/// `dur_us`, `tid` and an `args` object; instants the same minus `dur_us`;
/// counters carry `value`; the single `meta` footer is the last line and
/// carries `schema: "mako-trace/1"` plus the recorded/dropped totals.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut meta_seen = false;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err("empty trace file".to_string());
    }
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if meta_seen {
            return Err(format!("line {lineno}: events after the meta footer"));
        }
        let v = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ty = require_str(&v, "type", lineno)?;
        match ty {
            "span" | "instant" | "counter" => {
                let cat = require_str(&v, "cat", lineno)?.to_string();
                let name = require_str(&v, "name", lineno)?.to_string();
                require_num(&v, "ts_us", lineno)?;
                require_num(&v, "tid", lineno)?;
                match ty {
                    "span" => {
                        require_num(&v, "dur_us", lineno)?;
                        v.get("args")
                            .and_then(Json::as_object)
                            .ok_or_else(|| format!("line {lineno}: span needs an args object"))?;
                        summary.spans += 1;
                    }
                    "instant" => {
                        v.get("args")
                            .and_then(Json::as_object)
                            .ok_or_else(|| format!("line {lineno}: instant needs an args object"))?;
                        summary.instants += 1;
                    }
                    _ => {
                        require_num(&v, "value", lineno)?;
                        summary.counters += 1;
                    }
                }
                summary.names.insert(format!("{cat}.{name}"));
                summary.names.insert(name);
            }
            "meta" => {
                let schema = require_str(&v, "schema", lineno)?;
                if schema != "mako-trace/1" {
                    return Err(format!("line {lineno}: unknown schema '{schema}'"));
                }
                summary.recorded = require_num(&v, "recorded", lineno)? as u64;
                summary.dropped = require_num(&v, "dropped", lineno)? as u64;
                meta_seen = true;
            }
            other => return Err(format!("line {lineno}: unknown event type '{other}'")),
        }
    }
    if !meta_seen {
        return Err("trace file has no meta footer".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_values() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert!((v.get("a").unwrap().as_array().unwrap()[2].as_num().unwrap() + 300.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(validate_jsonl("{\"type\":\"span\"}\n").is_err());
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(validate_jsonl(&format!("{}\n", "{\"a\":".repeat(100_000))).is_err());
    }

    /// Tokens for the parser fuzz: every structural byte, string and escape
    /// pieces, number pieces, the three literals whole and cut short,
    /// whitespace, and a few whole arrays and objects so that some draws
    /// parse to nested values.
    const JSON_TOKENS: [&str; 36] = [
        "{", "}", "[", "]", "[", "]", "\"", "\"k\"", "\\", "\\u", "00e9", "\\n", ",", ",", ":",
        "-", ".", "e", "0", "7", "12", "true", "false", "null", "nul", "tru", " ", "\n", "\t",
        "\r", "\"s\"", "1.5e-3", "[]", "{}", "[0,[1]]", "{\"k\":[null]}",
    ];

    /// Array/object levels of a parsed value, counting the value itself.
    fn nesting(v: &Json) -> usize {
        match v {
            Json::Array(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
            Json::Object(kv) => 1 + kv.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// Whatever the tokens, `parse_json` returns rather than panics,
        /// also under `levels` more arrays. More than `MAX_DEPTH` levels is
        /// an `Err` whatever is inside; a value that parses still parses
        /// inside extra arrays as long as the total stays within
        /// `MAX_DEPTH`, and is then the innermost element.
        #[test]
        fn parse_json_returns_and_bounds_nesting_on_any_tokens(
            tokens in proptest::collection::vec(0usize..36, 0..10),
            levels in 0usize..2 * MAX_DEPTH + 2,
        ) {
            let text: String = tokens.iter().map(|&t| JSON_TOKENS[t]).collect();
            let bare = parse_json(&text);
            let wrapped = format!("{}{text}{}", "[".repeat(levels), "]".repeat(levels));
            let nested = parse_json(&wrapped);
            if levels > MAX_DEPTH {
                prop_assert!(nested.is_err(), "{levels} levels around {text:?} parsed");
            }
            if let Ok(v) = bare {
                let fits = levels + nesting(&v) <= MAX_DEPTH;
                prop_assert!(nested.is_ok() == fits, "{levels} levels around {text:?}: {nested:?}");
                if let Ok(mut inner) = nested {
                    for _ in 0..levels {
                        inner = match inner {
                            Json::Array(mut items) if items.len() == 1 => items.remove(0),
                            other => panic!("{levels} levels around {text:?} gave {other:?}"),
                        };
                    }
                    prop_assert_eq!(inner, v);
                }
            }
        }
    }

    #[test]
    fn u_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            parse_json(r#""\u0041\u00e9""#).unwrap().as_str(),
            Some("Aé")
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004g""#,
            r#""\u41""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn validates_a_wellformed_trace() {
        let text = concat!(
            "{\"type\":\"span\",\"cat\":\"scf\",\"name\":\"iteration\",\"ts_us\":1,\"tid\":0,\"dur_us\":2,\"args\":{\"iter\":0}}\n",
            "{\"type\":\"counter\",\"cat\":\"compiler\",\"name\":\"cache_hits\",\"ts_us\":2,\"tid\":0,\"value\":3}\n",
            "{\"type\":\"meta\",\"schema\":\"mako-trace/1\",\"recorded\":2,\"dropped\":0}\n",
        );
        let s = validate_jsonl(text).unwrap();
        assert_eq!((s.spans, s.counters), (1, 1));
        assert!(s.names.contains("scf.iteration"));
        assert_eq!(s.recorded, 2);
    }

    #[test]
    fn known_event_registry_covers_the_rescue_events() {
        for name in [
            "scf.setup",
            "scf.rescue",
            "scf.non_finite",
            "scf.iteration",
            "scf.xc",
            "chem.shells",
    "eri.screen_pairs",
    "eri.batch_quartets",
    "eri.one_electron",
    "linalg.orthogonalizer",
    "linalg.eigh",
        ] {
            assert!(is_known_event(name), "{name} missing from KNOWN_EVENTS");
        }
        assert!(!is_known_event("scf.unheard_of"));
    }

    #[test]
    fn known_event_registry_covers_the_serving_events() {
        for name in [
            "server.run",
            "server.admission",
            "server.state",
            "server.quantum",
            "server.preempt",
            "server.fault",
            "server.screen_cache.hits",
            "server.screen_cache.evictions",
            "job.submit",
            "job.start",
            "job.retry",
            "job.outcome",
        ] {
            assert!(is_known_event(name), "{name} missing from KNOWN_EVENTS");
        }
    }

    #[test]
    fn known_event_registry_covers_the_durability_events() {
        for name in [
            "store.append",
            "store.checkpoint",
            "store.artifact",
            "store.quarantine",
            "store.truncate",
            "store.crash",
            "recover.replay",
            "recover.serve",
        ] {
            assert!(is_known_event(name), "{name} missing from KNOWN_EVENTS");
        }
        assert!(!is_known_event("store.unheard_of"));
    }

    #[test]
    fn meta_must_be_last_and_known() {
        let bad = concat!(
            "{\"type\":\"meta\",\"schema\":\"mako-trace/1\",\"recorded\":0,\"dropped\":0}\n",
            "{\"type\":\"counter\",\"cat\":\"c\",\"name\":\"n\",\"ts_us\":1,\"tid\":0,\"value\":1}\n",
        );
        assert!(validate_jsonl(bad).is_err());
        let unknown = "{\"type\":\"meta\",\"schema\":\"mako-trace/9\",\"recorded\":0,\"dropped\":0}\n";
        assert!(validate_jsonl(unknown).is_err());
    }
}
