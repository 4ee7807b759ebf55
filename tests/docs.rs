//! The docs name only what exists. Every backticked code path, repo file
//! path, `DESIGN.md` section citation and figure linked to a committed
//! record in README.md, DESIGN.md, EXPERIMENTS.md and the verify skill
//! resolves against the tree, and so does every section citation in the
//! workspace's Rust sources (`crates/perf` cites none). DESIGN.md §13 states
//! the conventions; the unit cases below plant one broken reference each.

use hemocloud_obs::json::{self, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The documents whose references are checked.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
/// The committed records a figure may be linked to.
const RECORDS: [&str; 4] = [
    "BENCH_lbm.json",
    "BENCH_sched.json",
    "EVAL_campaign.json",
    "REPRO.json",
];
/// Figures that change on every regeneration: a doc names the field and the
/// command that writes it, never the figure.
const TIMED: [&str; 5] = [
    "BENCH_lbm.json",
    "BENCH_sched.json#events_per_sec",
    "BENCH_sched.json#jobs_per_sec",
    "BENCH_sched.json#elapsed_s",
    "BENCH_sched.json#peak_rss_mib",
];
/// First path segments that name the standard library or a primitive.
const STD_ROOTS: [&str; 20] = [
    "std", "alloc", "f32", "f64", "u8", "u32", "u64", "u128", "usize", "i64", "bool", "str",
    "String", "Vec", "Option", "Result", "Box", "Arc", "Iterator", "BTreeMap",
];
/// Extensions that mark a backticked token as a file path.
const EXTS: [&str; 7] = ["rs", "json", "md", "sh", "toml", "lock", "txt"];
/// First segments that mark a backticked token with a `/` as a repo path.
const TOP_DIRS: [&str; 7] = [
    "crates", "src", "tests", "examples", "scripts", ".claude", ".cargo",
];

/// One unresolved reference.
#[derive(Debug, PartialEq)]
struct Problem {
    doc: String,
    line: usize,
    token: String,
    what: String,
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: `{}`: {}",
            self.doc, self.line, self.token, self.what
        )
    }
}

/// The names one crate's sources define.
#[derive(Default)]
struct Crate {
    short: String,
    modules: HashSet<String>,
    types: HashSet<String>,
    values: HashSet<String>,
    /// Fields, variants and associated items, by the type that owns them.
    members: HashMap<String, HashSet<String>>,
}

/// What the docs are checked against.
struct Tree {
    files: HashSet<String>,
    dirs: HashSet<String>,
    crates: Vec<Crate>,
    sections: BTreeSet<u32>,
    records: HashMap<&'static str, Value>,
    /// The sources of `crates/bench/src`, where the generators name what
    /// they write.
    generators: String,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every file under `dir`, repo-relative with `/` separators, skipping build
/// output and version control.
fn walk(dir: &Path, rel: &str, files: &mut Vec<String>, dirs: &mut HashSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        if entry.path().is_dir() {
            if name != "target" && name != ".git" {
                dirs.insert(path.clone());
                walk(&entry.path(), &path, files, dirs);
            }
        } else {
            files.push(path);
        }
    }
}

fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let (mut files, mut dirs) = (Vec::new(), HashSet::new());
        walk(&root(), "", &mut files, &mut dirs);
        let package = |f: &str| match f.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap().to_string(),
            None => "hemocloud".to_string(),
        };
        let mut crates: Vec<Crate> = Vec::new();
        let mut generators = String::new();
        for f in files.iter().filter(|f| f.ends_with(".rs")) {
            let short = package(f);
            let i = match crates.iter().position(|c| c.short == short) {
                Some(i) => i,
                None => {
                    crates.push(Crate {
                        short,
                        ..Crate::default()
                    });
                    crates.len() - 1
                }
            };
            let src = read(f);
            let stem = f.rsplit('/').next().unwrap().trim_end_matches(".rs");
            crates[i].modules.insert(stem.to_string());
            if let Some(dir) = f.strip_suffix("/mod.rs") {
                crates[i]
                    .modules
                    .insert(dir.rsplit('/').next().unwrap().to_string());
            }
            index(&tokens(&src), &mut crates[i]);
            if f.starts_with("crates/bench/src/") {
                generators.push_str(&src);
            }
        }
        let sections = read("DESIGN.md")
            .lines()
            .filter_map(|l| l.strip_prefix("## ")?.split_once(". ")?.0.parse().ok())
            .collect();
        let records = RECORDS
            .iter()
            .map(|&r| {
                (
                    r,
                    json::parse(&read(r)).unwrap_or_else(|e| panic!("{r}: {e:?}")),
                )
            })
            .collect();
        Tree {
            files: files.into_iter().collect(),
            dirs,
            crates,
            sections,
            records,
            generators,
        }
    })
}

#[derive(Debug, PartialEq)]
enum Tok {
    Id(String),
    P(char),
    /// `::`
    Sep,
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Rust source as identifiers, `::` and punctuation, with comments, string
/// and character literals, lifetimes and numbers dropped.
fn tokens(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(0);
    let skip_string = |mut i: usize| {
        // `i` is just past the opening quote.
        while i < b.len() && b[i] != b'"' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    };
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        let c = b[i];
        if c == b'/' && at(i + 1) == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && at(i + 1) == b'*' {
            let (mut depth, mut j) = (1, i + 2);
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && at(j + 1) == b'*' {
                    depth += 1;
                    j += 1;
                } else if b[j] == b'*' && at(j + 1) == b'/' {
                    depth -= 1;
                    j += 1;
                }
                j += 1;
            }
            i = j;
        } else if c == b'"' {
            i = skip_string(i + 1);
        } else if c == b'\'' {
            if at(i + 1) == b'\\' {
                i += 3;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else {
                let width = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                if at(i + 1 + width) == b'\'' {
                    i += width + 2;
                } else {
                    i += 1;
                    while i < b.len() && is_ident(b[i]) {
                        i += 1;
                    }
                }
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && (is_ident(b[i]) || (b[i] == b'.' && at(i + 1).is_ascii_digit())) {
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            let word = &src[start..i];
            if matches!(word, "r" | "br") && matches!(at(i), b'"' | b'#') {
                let hashes = b[i..].iter().take_while(|&&h| h == b'#').count();
                let close = format!("\"{}", "#".repeat(hashes));
                let body = i + hashes + 1;
                i = src[body..]
                    .find(&close)
                    .map_or(b.len(), |k| body + k + close.len());
            } else if word == "b" && at(i) == b'"' {
                i = skip_string(i + 1);
            } else if word == "b" && at(i) == b'\'' {
                i += if at(i + 1) == b'\\' { 4 } else { 3 };
            } else {
                out.push(Tok::Id(word.to_string()));
            }
        } else if c == b':' && at(i + 1) == b':' {
            out.push(Tok::Sep);
            i += 2;
        } else {
            if c.is_ascii_punctuation() {
                out.push(Tok::P(c as char));
            }
            i += 1;
        }
    }
    out
}

/// What a `{` opens.
enum Frame {
    Other,
    Owner(String),
    Struct(String),
    Enum(String, usize),
}

/// The self type of the `impl` whose header starts at `toks[0]`: the last
/// identifier outside angle brackets, after `for` if there is one.
fn impl_self_type(toks: &[Tok]) -> String {
    let header = toks
        .iter()
        .position(|t| *t == Tok::P('{'))
        .map_or(toks, |k| &toks[..k]);
    let (mut depth, mut name, mut prev_dash) = (0i32, String::new(), false);
    for t in header {
        match t {
            Tok::P('<') => depth += 1,
            Tok::P('>') if !prev_dash => depth -= 1,
            Tok::Id(w) if depth == 0 && w == "where" => break,
            Tok::Id(w) if depth == 0 && w == "for" => name.clear(),
            Tok::Id(w) if depth == 0 && w != "dyn" && w != "mut" => name = w.clone(),
            _ => {}
        }
        prev_dash = *t == Tok::P('-');
    }
    name
}

/// Record the modules, items and members a token stream defines.
fn index(toks: &[Tok], krate: &mut Crate) {
    let word = |k: usize| match toks.get(k) {
        Some(Tok::Id(w)) => w.as_str(),
        _ => "",
    };
    let (mut stack, mut pending, mut paren): (Vec<Frame>, Option<Frame>, usize) =
        (Vec::new(), None, 0);
    for (k, t) in toks.iter().enumerate() {
        match t {
            Tok::P('{') => stack.push(pending.take().unwrap_or(Frame::Other)),
            Tok::P('}') => drop(stack.pop()),
            Tok::P('(') | Tok::P('[') => paren += 1,
            Tok::P(')') | Tok::P(']') => paren = paren.saturating_sub(1),
            Tok::P(';') => pending = None,
            Tok::Id(w) => {
                let next = word(k + 1).to_string();
                let owner = match stack.last() {
                    Some(Frame::Owner(o)) => Some(o.clone()),
                    _ => None,
                };
                let member = |name: &str, krate: &mut Crate| {
                    if let Some(o) = &owner {
                        krate
                            .members
                            .entry(o.clone())
                            .or_default()
                            .insert(name.to_string());
                    }
                };
                match w.as_str() {
                    "mod" => drop(krate.modules.insert(next)),
                    "fn" | "const" | "static" if !next.is_empty() && next != "fn" => {
                        member(&next, krate);
                        krate.values.insert(next);
                    }
                    "type" if !next.is_empty() => {
                        member(&next, krate);
                        krate.types.insert(next);
                    }
                    "struct" | "union" => {
                        krate.types.insert(next.clone());
                        pending = Some(Frame::Struct(next));
                    }
                    "enum" => {
                        krate.types.insert(next.clone());
                        pending = Some(Frame::Enum(next, paren));
                    }
                    "trait" => {
                        krate.types.insert(next.clone());
                        pending = Some(Frame::Owner(next));
                    }
                    "impl"
                        if k == 0
                            || matches!(toks[k - 1], Tok::P('}' | ';' | ']' | '{'))
                            || word(k - 1) == "unsafe" =>
                    {
                        pending = Some(Frame::Owner(impl_self_type(&toks[k + 1..])));
                    }
                    "macro_rules" => drop(krate.values.insert(word(k + 2).to_string())),
                    _ => {}
                }
                match stack.last() {
                    Some(Frame::Struct(s)) if toks.get(k + 1) == Some(&Tok::P(':')) => {
                        krate
                            .members
                            .entry(s.clone())
                            .or_default()
                            .insert(w.clone());
                    }
                    Some(Frame::Enum(e, p))
                        if paren == *p
                            && k > 0
                            && matches!(toks[k - 1], Tok::P('{' | ',' | ']')) =>
                    {
                        krate
                            .members
                            .entry(e.clone())
                            .or_default()
                            .insert(w.clone());
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

/// The `::` paths in a backticked span, `{a, b}` groups expanded.
fn code_paths(span: &str) -> Vec<Vec<String>> {
    let cs: Vec<char> = span.chars().collect();
    let ident_at = |i: usize| {
        cs.get(i)
            .is_some_and(|&c| c.is_ascii_alphabetic() || c == '_')
    };
    let read_ident = |mut i: usize| {
        let start = i;
        while cs
            .get(i)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == '_')
        {
            i += 1;
        }
        (cs[start..i].iter().collect::<String>(), i)
    };
    let (mut out, mut i) = (Vec::new(), 0);
    while i < cs.len() {
        let fresh =
            i == 0 || !(cs[i - 1].is_ascii_alphanumeric() || matches!(cs[i - 1], '_' | ':' | '.'));
        if !(fresh && ident_at(i)) {
            i += 1;
            continue;
        }
        let (first, mut j) = read_ident(i);
        let (mut paths, mut extended) = (vec![vec![first]], false);
        while cs.get(j) == Some(&':') && cs.get(j + 1) == Some(&':') {
            j += 2;
            if cs.get(j) == Some(&'{') {
                let (mut depth, mut k) = (0, j);
                while k < cs.len() {
                    depth += match cs[k] {
                        '{' => 1,
                        '}' => -1,
                        _ => 0,
                    };
                    if depth == 0 {
                        break;
                    }
                    k += 1;
                }
                let inner: String = cs[j + 1..k.min(cs.len())].iter().collect();
                let mut grown = Vec::new();
                for item in inner.split(',') {
                    let item = item.trim();
                    let lead: String = item
                        .chars()
                        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                        .collect();
                    if lead.is_empty()
                        || lead == "self"
                        || !item.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                    {
                        continue;
                    }
                    for p in &paths {
                        let mut q = p.clone();
                        q.extend(
                            lead.split("::")
                                .filter(|s| !s.is_empty())
                                .map(str::to_string),
                        );
                        grown.push(q);
                    }
                }
                paths = grown;
                extended = true;
                j = k + 1;
                break;
            } else if ident_at(j) {
                let (seg, k) = read_ident(j);
                paths.iter_mut().for_each(|p| p.push(seg.clone()));
                extended = true;
                j = k;
            } else {
                break;
            }
        }
        if extended {
            out.extend(paths);
        }
        i = j.max(i + 1);
    }
    out
}

impl Tree {
    fn crate_named(&self, seg: &str) -> Option<usize> {
        let short = seg.strip_prefix("hemocloud_").unwrap_or(seg);
        self.crates.iter().position(|c| c.short == short)
    }

    /// Whether a code path names something the workspace defines: crates and
    /// modules narrow the scope, a type must own the member that follows it.
    fn resolves(&self, path: &[String]) -> bool {
        if STD_ROOTS.contains(&path[0].as_str()) {
            return true;
        }
        let mut scope: Vec<usize> = (0..self.crates.len()).collect();
        let mut owner: Option<&str> = None;
        let mut leaf = false;
        for (i, seg) in path.iter().enumerate() {
            let seg = seg.as_str();
            // A crate name is a path's root, or a segment of the facade's.
            let root = i == 0 || path[i - 1] == "hemocloud";
            if leaf {
                return false;
            }
            if let Some(t) = owner {
                leaf = scope.iter().any(|&c| {
                    self.crates[c]
                        .members
                        .get(t)
                        .is_some_and(|m| m.contains(seg))
                });
                if !leaf {
                    return false;
                }
            } else if seg == "hemocloud" {
                scope = (0..self.crates.len()).collect();
            } else if let Some(c) = self.crate_named(seg).filter(|_| root) {
                scope = vec![c];
            } else if scope.iter().any(|&c| self.crates[c].modules.contains(seg)) {
                scope.retain(|&c| self.crates[c].modules.contains(seg));
            } else if scope.iter().any(|&c| self.crates[c].types.contains(seg)) {
                owner = Some(seg);
            } else if scope.iter().any(|&c| self.crates[c].values.contains(seg)) {
                leaf = true;
            } else {
                return false;
            }
        }
        true
    }

    /// Whether a repo path exists, crate-relative paths (`sched/src/…`) and
    /// bare file names included, or a generator in `crates/bench` writes it.
    fn exists(&self, path: &str) -> bool {
        let path = path.trim_end_matches('/');
        let present = |p: &str| self.files.contains(p) || self.dirs.contains(p);
        if present(path) || present(&format!("crates/{path}")) {
            return true;
        }
        if !path.contains('/')
            && self
                .files
                .iter()
                .any(|f| f.rsplit('/').next() == Some(path))
        {
            return true;
        }
        !path.contains('/') && self.generators.contains(&format!("\"{path}\""))
    }

    /// The record value a figure link points at (`Value::at`'s path syntax).
    fn figure(&self, record: &str, pointer: &str) -> Option<&Value> {
        self.records.get(record)?.at(pointer)
    }

    /// Problems with one `[figure](RECORD#pointer)` link.
    fn check_figure(&self, text: &str, record: &str, pointer: &str) -> Option<String> {
        let target = format!("{record}#{pointer}");
        if TIMED
            .iter()
            .any(|t| target == *t || (!t.contains('#') && record == *t))
        {
            return Some("a timed figure: name the field and the command that writes it".into());
        }
        let Some(value) = self.figure(record, pointer) else {
            return Some(format!("no single value at `{target}`"));
        };
        let printed = text.replace(',', "").replace('−', "-");
        let printed = printed.strip_prefix('+').unwrap_or(&printed);
        if printed.parse::<f64>().is_err() {
            return Some("the link text is not a number".into());
        }
        let decimals = printed.split_once('.').map_or(0, |(_, d)| d.len());
        let recorded = match value {
            Value::UInt(n) if decimals == 0 => n.to_string(),
            v => format!("{:.*}", decimals, v.as_f64()?),
        };
        (recorded != printed).then(|| format!("`{target}` reads {recorded} at that rounding"))
    }

    /// Every unresolved reference in one document.
    fn check_doc(&self, doc: &str, text: &str) -> Vec<Problem> {
        let dir = Path::new(doc)
            .parent()
            .map_or(String::new(), |d| d.to_string_lossy().into_owned());
        let mut out = Vec::new();
        let mut problem = |line: usize, token: &str, what: String| {
            out.push(Problem {
                doc: doc.to_string(),
                line,
                token: token.to_string(),
                what,
            });
        };
        let mut decisions = false;
        let mut open: Option<(usize, String)> = None;
        for (n, line) in text.lines().enumerate().map(|(n, l)| (n + 1, l)) {
            if doc == "DESIGN.md" && line.starts_with("## ") {
                decisions = line.contains("Decisions");
            }
            let history = decisions && line.starts_with('|');
            for (token, what) in self.section_problems(line) {
                problem(n, &token, what);
            }
            // Markdown links outside code spans: repo targets must exist; a
            // link into a record is a figure.
            let prose: String = line.split('`').step_by(2).collect::<Vec<_>>().join("``");
            let mut rest = prose.as_str();
            while let Some(k) = rest.find("](") {
                let label = rest[..k].rsplit_once('[').map_or("", |(_, l)| l);
                let after = &rest[k + 2..];
                let target = &after[..after.find(')').unwrap_or(after.len())];
                rest = &after[target.len()..];
                if target.starts_with("http") || target.starts_with('#') || target.is_empty() {
                    continue;
                }
                let (file, pointer) = target.split_once('#').unwrap_or((target, ""));
                let file = normalize(&dir, file);
                if !history && !self.exists(&file) {
                    problem(n, target, "no such file in the tree".into());
                } else if RECORDS.contains(&file.as_str()) && !pointer.is_empty() {
                    if let Some(what) = self.check_figure(label, &file, pointer) {
                        problem(n, &format!("[{label}]({target})"), what);
                    }
                }
            }
            // Backticked spans, which may run over lines but not over a blank
            // line or a code fence.
            if line.trim().is_empty() || line.trim_start().starts_with("```") {
                open = None;
                continue;
            }
            let pieces: Vec<&str> = line.split('`').collect();
            for (i, piece) in pieces.iter().enumerate() {
                if let Some((_, span)) = open.as_mut() {
                    if !span.is_empty() {
                        span.push(' ');
                    }
                    span.push_str(piece);
                }
                if i + 1 == pieces.len() {
                    break;
                }
                match open.take() {
                    Some((start, span)) if !history => {
                        for (token, what) in self.span_problems(&span) {
                            problem(start, &token, what);
                        }
                    }
                    Some(_) => {}
                    None => open = Some((n, String::new())),
                }
            }
        }
        out
    }

    /// Problems with one backticked span: its code paths and its file path.
    fn span_problems(&self, span: &str) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = code_paths(span)
            .into_iter()
            .filter(|p| !self.resolves(p))
            .map(|p| (p.join("::"), "names nothing the workspace defines".into()))
            .collect();
        let token = span.trim().trim_end_matches(':');
        let path = token.split_once(':').map_or(token, |(p, _)| p);
        let skip = token.contains(char::is_whitespace)
            || token.contains("::")
            || token.starts_with(['/', '~', '-', '.'].as_slice()) && !token.starts_with(".c")
            || ["<", "*", "$", "{", "=", "http"]
                .iter()
                .any(|s| token.contains(s));
        let ext = path
            .rsplit_once('.')
            .is_some_and(|(stem, e)| !stem.is_empty() && EXTS.contains(&e));
        let dir = path.contains('/') && TOP_DIRS.contains(&path.split('/').next().unwrap());
        if !skip && (ext || dir) && !self.exists(path) {
            out.push((token.to_string(), "no such file in the tree".into()));
        }
        out
    }

    /// Section citations on one line that name no DESIGN.md heading. Paper
    /// sections are roman (`§II-D`), so every arabic one is DESIGN.md's.
    fn section_problems(&self, line: &str) -> Vec<(String, String)> {
        line.match_indices('§')
            .filter_map(|(k, _)| {
                let digits: String = line[k + '§'.len_utf8()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                let n: u32 = digits.parse().ok()?;
                (!self.sections.contains(&n)).then(|| {
                    (
                        format!("§{digits}"),
                        "no such DESIGN.md section".to_string(),
                    )
                })
            })
            .collect()
    }
}

/// `file` relative to the directory `dir`, `..` resolved.
fn normalize(dir: &str, file: &str) -> String {
    let mut parts: Vec<&str> = dir.split('/').filter(|s| !s.is_empty()).collect();
    for seg in file.split('/') {
        match seg {
            ".." => drop(parts.pop()),
            "." | "" => {}
            s => parts.push(s),
        }
    }
    parts.join("/")
}

#[test]
fn docs_name_only_what_the_tree_holds() {
    let tree = tree();
    let problems: Vec<String> = DOCS
        .iter()
        .flat_map(|doc| tree.check_doc(doc, &read(doc)))
        .map(|p| p.to_string())
        .collect();
    assert!(
        problems.is_empty(),
        "{} unresolved references:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn code_cites_only_design_sections_that_exist() {
    let tree = tree();
    let mut problems = Vec::new();
    for f in tree
        .files
        .iter()
        .filter(|f| {
            let script = f.starts_with("scripts/") && f.ends_with(".sh");
            script || (f.ends_with(".rs") && !f.starts_with("crates/perf/"))
        })
    {
        for (n, line) in read(f).lines().enumerate() {
            for (token, what) in tree.section_problems(line) {
                problems.push(
                    Problem {
                        doc: f.clone(),
                        line: n + 1,
                        token,
                        what,
                    }
                    .to_string(),
                );
            }
        }
    }
    assert!(
        problems.is_empty(),
        "{} dangling citations:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

/// Check planted README text whose third line carries one broken reference
/// and require exactly that problem, named by doc, line and token.
fn planted(third_line: &str, token: &str) {
    let text = format!("# Planted\n\nSee {third_line} for details.\n");
    let problems = tree().check_doc("README.md", &text);
    assert_eq!(problems.len(), 1, "{problems:?}");
    let p = &problems[0];
    assert_eq!(
        (p.doc.as_str(), p.line, p.token.as_str()),
        ("README.md", 3, token),
        "{p}"
    );
    assert!(
        p.to_string()
            .starts_with(&format!("README.md:3: `{token}`")),
        "{p}"
    );
}

#[test]
fn a_stale_member_is_named() {
    planted(
        "`SolverConfig::parallel_threshold`",
        "SolverConfig::parallel_threshold",
    );
}

#[test]
fn a_missing_file_path_is_named() {
    planted(
        "`crates/lbm/src/traversal.rs`",
        "crates/lbm/src/traversal.rs",
    );
}

#[test]
fn a_dangling_section_citation_is_named() {
    let cite = format!("DESIGN.md {}99", '§');
    planted(&cite, &format!("{}99", '§'));
}

#[test]
fn a_wrong_figure_is_named() {
    let link = "[2.1](EVAL_campaign.json#overall.error_p50_pct)";
    planted(link, link);
    let p = &tree().check_doc("README.md", &format!("a\nb\n{link}\n"))[0];
    assert!(p.what.contains("reads 2.0"), "{p}");
}

#[test]
fn live_references_and_recorded_history_pass() {
    let text = "`SolverConfig::kernel`, `crates/sched/src/scenario.rs`, `sched/src/sweep.rs`, \
                `OBS_fabric.json`, DESIGN.md §13 and [2.02](EVAL_campaign.json#overall.error_p50_pct) \
                and [1,000,000](BENCH_sched.json#jobs) and `hemocloud_sched::{Scenario, sweep::audit}`\n";
    assert_eq!(tree().check_doc("README.md", text), vec![]);
    let timed = tree().check_doc("README.md", "[771.8](BENCH_sched.json#events_per_sec)\n");
    assert!(timed[0].what.contains("timed"), "{timed:?}");
    let history =
        "## 14. Decisions\n\n| `TraversalOrder::Morton` | `crates/lbm/src/traversal.rs` |\n";
    assert_eq!(tree().check_doc("DESIGN.md", history), vec![]);
    assert_eq!(tree().check_doc("README.md", history).len(), 2);
}
