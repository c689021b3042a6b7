//! Machine-readable benchmark output.
//!
//! The criterion shim has no `target/criterion` report tree, so harness-free
//! bench `main`s export their numbers here instead: each bench merges one
//! named top-level section into `BENCH_engine.json` at the repository root,
//! preserving the sections other benches wrote. The format is plain JSON —
//! `{"section": {"unit": "ns_per_iter", "benches": {...}, ...}, ...}` — and
//! both the writer and the (deliberately minimal) section scanner live here,
//! with no external dependencies.

use std::path::PathBuf;
use std::time::Duration;

/// Location of the merged benchmark report: the repository root.
pub fn bench_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Threads the host grants this process — recorded beside timings that fan
/// out across them (the base-station join, the serve tick).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// What a recorded timing was measured on, as a JSON string: the thread
/// count and the CPU model (`/proc/cpuinfo`; `unknown` where there is none).
/// Timings from different hosts — or one host's fast and slow hours — are
/// not comparable; a section that carries this says which it was.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    quote(&format!("{} threads, {model}", host_threads()))
}

/// Serializes shim results (`Criterion::results()`) as a `"benches"` object
/// mapping benchmark names to mean nanoseconds per iteration.
pub fn times_object(results: &[(String, Duration)]) -> String {
    let entries: Vec<String> = results
        .iter()
        .map(|(name, d)| format!("    {}: {}", quote(name), d.as_nanos()))
        .collect();
    if entries.is_empty() {
        "{}".to_owned()
    } else {
        format!("{{\n{}\n  }}", entries.join(",\n"))
    }
}

/// Builds a section value `{"unit": "ns_per_iter", "benches": {...}}` with
/// optional extra fields (`(key, raw-JSON-value)` pairs) appended — used for
/// derived numbers such as speedup ratios.
pub fn section_value(results: &[(String, Duration)], extras: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("unit".to_owned(), "\"ns_per_iter\"".to_owned()),
        ("benches".to_owned(), times_object(results)),
    ];
    for (k, v) in extras {
        fields.push(((*k).to_owned(), v.clone()));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {}", quote(k), v))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

/// Merges `section` into the report on disk, replacing any existing entry of
/// the same name and leaving the others untouched.
pub fn merge_section(section: &str, value_json: &str) {
    let path = bench_json_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let merged = merge_into(&existing, section, value_json);
    std::fs::write(&path, merged).expect("write BENCH_engine.json");
    println!("wrote section {section:?} to {}", path.display());
}

/// Pure merge: parses the top-level sections of `existing` (empty or
/// malformed input starts a fresh report), replaces/appends `section`, and
/// re-serializes with sections in first-written order.
fn merge_into(existing: &str, section: &str, value_json: &str) -> String {
    let mut sections = scan_sections(existing).unwrap_or_default();
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = value_json.to_owned(),
        None => sections.push((section.to_owned(), value_json.to_owned())),
    }
    let body: Vec<String> = sections
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Scans `{"key": <value>, ...}`, returning each top-level key with the raw
/// text of its value. Values are skipped by balanced-delimiter counting with
/// string-awareness; anything unexpected aborts the scan (`None`), which the
/// caller treats as an empty report.
fn scan_sections(text: &str) -> Option<Vec<(String, String)>> {
    let bytes = text.as_bytes();
    let mut i = skip_ws(bytes, 0);
    if i >= bytes.len() || bytes[i] != b'{' {
        return None;
    }
    i = skip_ws(bytes, i + 1);
    let mut out = Vec::new();
    while i < bytes.len() && bytes[i] != b'}' {
        let (key, next) = scan_string(bytes, i)?;
        i = skip_ws(bytes, next);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i = skip_ws(bytes, i + 1);
        let start = i;
        i = skip_value(bytes, i)?;
        out.push((key, text[start..i].trim_end().to_owned()));
        i = skip_ws(bytes, i);
        if i < bytes.len() && bytes[i] == b',' {
            i = skip_ws(bytes, i + 1);
        }
    }
    (i < bytes.len()).then_some(out)
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Returns the decoded string starting at `i` (which must be `"`), and the
/// index just past the closing quote. Escapes are kept verbatim minus the
/// backslash for the two we emit (`\"` and `\\`).
fn scan_string(bytes: &[u8], i: usize) -> Option<(String, usize)> {
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    let mut s = String::new();
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return Some((s, j + 1)),
            b'\\' => {
                s.push(*bytes.get(j + 1)? as char);
                j += 2;
            }
            c => {
                s.push(c as char);
                j += 1;
            }
        }
    }
    None
}

/// Skips one JSON value (object, array, string, or scalar) starting at `i`.
fn skip_value(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i)? {
        b'"' => scan_string(bytes, i).map(|(_, j)| j),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    b'"' => {
                        j = scan_string(bytes, j)?.1;
                        continue;
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            let mut j = i;
            while j < bytes.len() && !matches!(bytes[j], b',' | b'}' | b']') {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_starts_replaces_and_preserves() {
        let v1 = "{\n  \"a\": 1\n}";
        let first = merge_into("", "alpha", v1);
        assert!(first.contains("\"alpha\""));
        assert_eq!(scan_sections(&first).unwrap().len(), 1);

        let second = merge_into(&first, "beta", "{\"b\": [1, 2]}");
        let sections = scan_sections(&second).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, "alpha");
        assert_eq!(sections[1].1, "{\"b\": [1, 2]}");

        let third = merge_into(&second, "alpha", "{\"a\": 2}");
        let sections = scan_sections(&third).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].1, "{\"a\": 2}");
        assert_eq!(sections[1].0, "beta");
    }

    #[test]
    fn malformed_input_starts_fresh() {
        let merged = merge_into("not json", "s", "{}");
        assert_eq!(scan_sections(&merged).unwrap().len(), 1);
    }

    #[test]
    fn section_value_shape() {
        let results = vec![
            ("g/one".to_owned(), Duration::from_nanos(1500)),
            ("g/\"two\"".to_owned(), Duration::from_micros(2)),
        ];
        let v = section_value(&results, &[("speedup", "{\"1000\": 6.5}".to_owned())]);
        assert!(v.contains("\"ns_per_iter\""));
        assert!(v.contains("\"g/one\": 1500"));
        assert!(v.contains("\\\"two\\\""));
        assert!(v.contains("\"speedup\""));
        // The emitted value must itself survive a scan round-trip.
        let merged = merge_into("", "s", &v);
        assert_eq!(scan_sections(&merged).unwrap()[0].1, v);
    }

    #[test]
    fn scan_handles_nested_strings_with_braces() {
        let text = "{\"k\": {\"s\": \"}{\", \"n\": 3}, \"m\": true}";
        let sections = scan_sections(text).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].1, "{\"s\": \"}{\", \"n\": 3}");
        assert_eq!(sections[1].1, "true");
    }
}
