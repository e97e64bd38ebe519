//! Findings and their human/JSON renderings.

use std::fmt;

/// Which invariant pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Marker-comment hygiene (malformed or misplaced allow regions).
    Allowlist,
    /// Float-freedom of the hot path.
    Float,
    /// `unsafe` audit (SAFETY comments, file allowlist, dispatch sites).
    Unsafe,
    /// Panic-freedom of the hot path.
    Panic,
    /// `DESIGN.md §N` reference resolution.
    DocRef,
    /// Allocation-freedom of registered per-sample loops.
    Alloc,
    /// Shard-worker blocking discipline (channels, locks vs codec).
    Blocking,
    /// Truncating-cast `// WIDTH:` audit on hot-path files.
    Cast,
    /// Snapshot encode/decode schema symmetry.
    Schema,
    /// Registered scopes and dispatch sites that name no existing fn.
    Registry,
}

impl Pass {
    /// The stable machine-readable name used in JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Allowlist => "allowlist",
            Pass::Float => "float-freedom",
            Pass::Unsafe => "unsafe-audit",
            Pass::Panic => "panic-freedom",
            Pass::DocRef => "doc-ref",
            Pass::Alloc => "alloc-freedom",
            Pass::Blocking => "blocking-discipline",
            Pass::Cast => "cast-audit",
            Pass::Schema => "schema-drift",
            Pass::Registry => "stale-registration",
        }
    }

    /// Every pass, in report order. Used by the baseline parser to map
    /// stable names back to variants.
    #[must_use]
    pub fn all() -> &'static [Pass] {
        &[
            Pass::Allowlist,
            Pass::Float,
            Pass::Unsafe,
            Pass::Panic,
            Pass::DocRef,
            Pass::Alloc,
            Pass::Blocking,
            Pass::Cast,
            Pass::Schema,
            Pass::Registry,
        ]
    }

    /// Resolves a stable name back to its pass.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Pass> {
        Pass::all().iter().copied().find(|p| p.name() == name)
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that fired.
    pub pass: Pass,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line (0 when the finding is about a whole file).
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    #[must_use]
    pub fn new(pass: Pass, file: &str, line: u32, message: String) -> Self {
        Self {
            pass,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.pass, self.file, self.line, self.message
        )
    }
}

/// Renders findings as a JSON array (machine-readable `--json` output).
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"pass\": \"");
        out.push_str(f.pass.name());
        out.push_str("\", \"file\": \"");
        escape_into(&f.file, &mut out);
        out.push_str("\", \"line\": ");
        out.push_str(&f.line.to_string());
        out.push_str(", \"message\": \"");
        escape_into(&f.message, &mut out);
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}
