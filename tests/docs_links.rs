//! Intra-repo markdown link checker — the docs CI job.
//!
//! Walks every tracked `*.md` file, extracts `[text](target)` links,
//! and fails on any relative target that does not resolve to a file or
//! directory in the repo. For `#L<n>` / `#L<n>-L<m>` line anchors on
//! source files (the `file.rs#L123` style ARCHITECTURE.md uses), the
//! anchored lines must exist and hold what the link text names
//! ([`check_anchor`]), so anchors go stale loudly instead of silently. In
//! the living docs ([`LIVING_DOCS`]) a `file.rs:nn` text must be such a
//! link's text ([`unchecked_line_numbers`]): a plain one is checked by
//! nothing.

use std::fs;
use std::path::{Path, PathBuf};

/// Markdown files to check: the repo root and everything under
/// `crates/`, `docs/`-like trees — skipping build output and VCS state.
fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == ".git" || name == "target" || name == "node_modules" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".md") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Extracts `(line, text, target)` of every inline `[text](target)` link.
/// Good enough for this repo's markdown: no reference-style links, no
/// brackets inside link texts, no targets containing unescaped
/// parentheses.
fn link_targets(text: &str) -> Vec<(usize, String, String)> {
    let bytes = text.as_bytes();
    let mut targets = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                let target = &text[i + 2..i + 2 + end];
                let line = text[..i].matches('\n').count() + 1;
                let label = text[..i].rfind('[').map_or("", |open| &text[open + 1..i]);
                targets.push((line, label.to_string(), target.to_string()));
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    targets
}

/// The code spans of a link text: `` [`holds`, `eval.rs:104`] `` has two.
fn code_spans(label: &str) -> Vec<&str> {
    label.split('`').skip(1).step_by(2).collect()
}

/// `file.rs:nn` or `file.rs:nn-mm` as `(file, nn)`.
fn file_line(span: &str) -> Option<(&str, usize)> {
    let (file, lines) = span.rsplit_once(':')?;
    let first = lines.split('-').next()?;
    (file.contains('.') && !file.contains(' ')).then_some(())?;
    Some((file, first.parse().ok()?))
}

/// The item a code span names, if it is a path of identifiers: its last
/// segment (`FilterIndex::probe` names `probe`).
fn identifier(span: &str) -> Option<&str> {
    let last = span.rsplit("::").next()?;
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let ok = span
        .split("::")
        .all(|seg| !seg.is_empty() && seg.chars().all(word));
    (ok && !last.starts_with(|c: char| c.is_ascii_digit())).then_some(last)
}

/// Whether `line` holds `ident` as a whole word.
fn has_word(line: &str, ident: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + ident.len()..].chars().next();
        !before.is_some_and(word) && !after.is_some_and(word)
    })
}

/// Where `ident` is defined in `contents` (1-based), or else first named.
fn where_is(contents: &str, ident: &str) -> Option<usize> {
    let lines: Vec<&str> = contents.lines().collect();
    let defines = |line: &str| {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        words.windows(2).any(|w| {
            w[1] == ident
                && matches!(
                    w[0],
                    "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod"
                )
        })
    };
    let at = |f: &dyn Fn(&str) -> bool| lines.iter().position(|l| f(l)).map(|i| i + 1);
    at(&defines).or_else(|| at(&|l| has_word(l, ident)))
}

/// Checks that anchored lines `first..=last` of `contents` (the file
/// `file`) hold what the link text `label` names: a `file.rs:nn` code span
/// must name that file and the anchor's first line, and the first code span
/// that is an identifier (or a path, by its last segment) must appear in
/// the range. Returns a problem description, or None if the anchor is fine.
fn check_anchor(
    label: &str,
    file: &str,
    contents: &str,
    first: usize,
    last: usize,
) -> Option<String> {
    let spans = code_spans(label);
    for (name, line) in spans.iter().filter_map(|s| file_line(s)) {
        if name != file || line != first {
            return Some(format!(
                "link text `{name}:{line}` does not match the anchor {file}#L{first}"
            ));
        }
    }
    let ident = spans.iter().find_map(|s| identifier(s))?;
    let lines: Vec<&str> = contents.lines().collect();
    let range = lines.get(first - 1..last.min(lines.len()))?;
    if range.iter().any(|l| has_word(l, ident)) {
        return None;
    }
    Some(match where_is(contents, ident) {
        Some(now) => format!("`{ident}` is not on #L{first}; it is at #L{now}"),
        None => format!("`{ident}` is not on #L{first}, nor anywhere in `{file}`"),
    })
}

/// Checks one link target relative to the file containing it. Returns a
/// problem description, or None if the link is fine.
fn check_target(md_file: &Path, root: &Path, label: &str, target: &str) -> Option<String> {
    // External and intra-document links are out of scope.
    if target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
        || target.is_empty()
    {
        return None;
    }
    let (path_part, anchor) = match target.split_once('#') {
        Some((p, a)) => (p, Some(a)),
        None => (target, None),
    };
    let base = md_file.parent().unwrap_or(root);
    let resolved = base.join(path_part);
    if !resolved.exists() {
        return Some(format!("target `{path_part}` does not exist"));
    }
    // Validate `#L<n>` / `#L<n>-L<m>` line anchors against the file.
    if let Some(anchor) = anchor {
        if let Some(rest) = anchor.strip_prefix('L') {
            let first = rest.split(['-', 'C']).next().unwrap_or(rest);
            if let Ok(line) = first.parse::<usize>() {
                let contents = match fs::read_to_string(&resolved) {
                    Ok(c) => c,
                    Err(_) => return Some(format!("`{path_part}` is not readable text")),
                };
                let count = contents.lines().count();
                if line == 0 || line > count {
                    return Some(format!(
                        "anchor #L{line} is out of range: `{path_part}` has {count} lines"
                    ));
                }
                let last = rest
                    .split_once("-L")
                    .and_then(|(_, end)| end.parse().ok())
                    .unwrap_or(line);
                let file = path_part.rsplit('/').next().unwrap_or(path_part);
                return check_anchor(label, file, &contents, line, last);
            }
        }
        // Markdown `#section` anchors are not validated — headers move
        // freely; only existence of the file matters.
    }
    None
}

/// The docs that describe the code as it is. CHANGES.md and ROADMAP.md
/// quote history, and may name lines as they were.
const LIVING_DOCS: [&str; 6] = [
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "OPERATIONS.md",
    "CONTRIBUTING.md",
    "EXPERIMENTS.md",
];

/// `(line, text)` of every `name.rs:nn` in `text` that is not inside the
/// text of a link with an `#L` anchor, the one place [`check_anchor`] reads
/// it.
fn unchecked_line_numbers(text: &str) -> Vec<(usize, String)> {
    let name = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".rs:") {
        let digits = text[at + 4..].bytes().take_while(u8::is_ascii_digit);
        let end = at + 4 + digits.count();
        let before = text[..at].char_indices().rev().find(|&(_, c)| !name(c));
        let start = before.map_or(0, |(i, c)| i + c.len_utf8());
        if end == at + 4 || start == at {
            continue;
        }
        // Inside `[...](target#L..)`: the last `[` before it is not closed
        // before it, and the first `]` after it opens an anchored target.
        let open = text[..start].rfind('[');
        let closed = open.is_some_and(|open| text[open..start].contains(']'));
        let anchored = text[end..].find(']').is_some_and(|close| {
            let target = &text[end + close + 1..];
            let target = target.strip_prefix('(').and_then(|t| t.split(')').next());
            target.is_some_and(|t| t.contains("#L")) && !text[end..end + close].contains('[')
        });
        if open.is_none() || closed || !anchored {
            let line = text[..at].matches('\n').count() + 1;
            found.push((line, text[start..end].to_owned()));
        }
    }
    found
}

#[test]
fn living_docs_name_lines_only_in_checked_anchors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut problems = Vec::new();
    for doc in LIVING_DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (line, span) in unchecked_line_numbers(&text) {
            problems.push(format!("{doc}:{line}: `{span}`"));
        }
    }
    assert!(
        problems.is_empty(),
        "{} line number(s) no test checks — name the item, or make the text an `#L` link's:\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
}

/// A `file.rs:nn` counts as checked only as the text of an `#L` link: in
/// prose, in a code block, or as the text of a link to the file alone, it
/// is reported.
#[test]
fn only_anchor_texts_may_name_lines() {
    let text = "[`run_epoch`, `epoch.rs:290`](crates/core/src/epoch.rs#L290) and\n\
                [`engine.rs:370-380`](crates/core/src/engine.rs#L370-L380)\n\
                stale: epoch.rs:368, [core/engine.rs:792],\n\
                [`repr.rs:12`](crates/core/src/repr.rs), `point.rs:34`\n\
                fine: [core/epoch.rs: run_epoch], engine.rs, a.rs:x";
    let owned = |line, span: &str| (line, span.to_owned());
    assert_eq!(
        unchecked_line_numbers(text),
        vec![
            owned(3, "epoch.rs:368"),
            owned(3, "engine.rs:792"),
            owned(4, "repr.rs:12"),
            owned(4, "point.rs:34"),
        ]
    );
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = markdown_files(root);
    assert!(
        files.iter().any(|f| f.ends_with("README.md")),
        "walker must find the root README"
    );
    let mut problems = Vec::new();
    let mut checked = 0usize;
    for md in &files {
        let text = fs::read_to_string(md).unwrap();
        for (line, label, target) in link_targets(&text) {
            checked += 1;
            if let Some(problem) = check_target(md, root, &label, &target) {
                problems.push(format!(
                    "{}:{line}: [{target}] — {problem}",
                    md.strip_prefix(root).unwrap_or(md).display()
                ));
            }
        }
    }
    assert!(
        checked > 50,
        "expected to check many links, found only {checked} — extractor broken?"
    );
    assert!(
        problems.is_empty(),
        "{} broken intra-repo markdown link(s):\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
}

#[test]
fn extractor_sees_links_and_anchors() {
    let text = "intro [a](foo.md) then [b](crates/x/src/y.rs#L12) and\n[c](https://example.com) *(not a link)*";
    let targets = link_targets(text);
    let owned = |line, label: &str, target: &str| (line, label.to_string(), target.to_string());
    assert_eq!(
        targets,
        vec![
            owned(1, "a", "foo.md"),
            owned(1, "b", "crates/x/src/y.rs#L12"),
            owned(2, "c", "https://example.com"),
        ]
    );
}

/// An anchor must land on the item its link text names: the stale anchors
/// this check was written for — a line inside a struct's body, a
/// `file.rs:nn` text naming another line, a function one line below its
/// anchor — fail and say where the item is now.
#[test]
fn anchors_land_on_what_their_text_names() {
    let src = "/// Stats.\npub struct NetworkStats {\n    pub tx: u64,\n}\n\n/// Size.\npub fn merged_wire_size() {}\nimpl Space {\n    fn probe(&self) {}\n}\n";
    let check = |label: &str, first, last| check_anchor(label, "stats.rs", src, first, last);
    assert_eq!(check("`NetworkStats`", 2, 2), None);
    assert_eq!(check("`NetworkStats`", 1, 3), None);
    assert_eq!(
        check("`NetworkStats`", 3, 3).as_deref(),
        Some("`NetworkStats` is not on #L3; it is at #L2")
    );
    assert_eq!(check("`Space::probe`", 9, 9), None);
    assert_eq!(check("`stats.rs:7`", 7, 7), None);
    assert_eq!(
        check("`stats.rs:6`", 7, 7).as_deref(),
        Some("link text `stats.rs:6` does not match the anchor stats.rs#L7")
    );
    assert_eq!(
        check("`merged_wire_size`, `stats.rs:6`", 6, 6).as_deref(),
        Some("`merged_wire_size` is not on #L6; it is at #L7")
    );
    assert_eq!(check("`merged_wire_size`, `stats.rs:7`", 7, 7), None);
    // A text without a code identifier claims nothing about the line.
    assert_eq!(check("Registration", 4, 4), None);
    assert_eq!(check("`|X| = c`", 4, 4), None);
}
