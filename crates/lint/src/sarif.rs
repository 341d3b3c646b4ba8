//! SARIF 2.1.0 export.
//!
//! Renders a check report as a Static Analysis Results Interchange
//! Format log so CI can upload findings and annotate PR diffs. The
//! writer is hand-rolled (no serde in this workspace): a tiny JSON
//! string builder with correct escaping, emitting exactly the subset of
//! SARIF that github/codeql-action/upload-sarif consumes — driver
//! metadata, rule descriptors, and one `result` per violation with a
//! physical location.

use crate::diag::Violation;

/// One rule descriptor for the `tool.driver.rules` array.
pub struct RuleMeta {
    /// Rule id (`L004`…).
    pub id: &'static str,
    /// One-line description.
    pub description: String,
}

/// Escapes a string for embedding inside a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full SARIF document.
pub fn render(violations: &[Violation], rules: &[RuleMeta]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"bp-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/browser-provenance/bp\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        esc(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"rules\": [\n");
    for (i, r) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{ \"id\": \"{}\", \"shortDescription\": {{ \"text\": \"{}\" }} }}{}\n",
            esc(r.id),
            esc(&r.description),
            if i + 1 < rules.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, v) in violations.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", esc(v.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{ \"text\": \"{}\" }},\n",
            esc(&v.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{ \"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\" }},\n",
            esc(&v.path)
        ));
        out.push_str(&format!(
            "                \"region\": {{ \"startLine\": {}, \"startColumn\": {} }}\n",
            v.line, v.col
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn v(rule: &'static str, path: &str, line: u32, msg: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line,
            col: 3,
            message: msg.to_string(),
            severity: Severity::Error,
        }
    }

    // ---- a minimal JSON parser, used only to validate writer output ----

    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                _ => panic!("not an array: {self:?}"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string: {self:?}"),
            }
        }
    }

    fn parse_json(s: &str) -> Json {
        let b: Vec<char> = s.chars().collect();
        let mut i = 0usize;
        let v = parse_value(&b, &mut i);
        skip_ws(&b, &mut i);
        assert_eq!(i, b.len(), "trailing garbage at {i}");
        v
    }

    fn skip_ws(b: &[char], i: &mut usize) {
        while *i < b.len() && b[*i].is_whitespace() {
            *i += 1;
        }
    }

    fn parse_value(b: &[char], i: &mut usize) -> Json {
        skip_ws(b, i);
        match b[*i] {
            '{' => {
                *i += 1;
                let mut kvs = Vec::new();
                skip_ws(b, i);
                if b[*i] == '}' {
                    *i += 1;
                    return Json::Obj(kvs);
                }
                loop {
                    skip_ws(b, i);
                    let k = match parse_value(b, i) {
                        Json::Str(s) => s,
                        other => panic!("bad key {other:?}"),
                    };
                    skip_ws(b, i);
                    assert_eq!(b[*i], ':');
                    *i += 1;
                    kvs.push((k, parse_value(b, i)));
                    skip_ws(b, i);
                    match b[*i] {
                        ',' => *i += 1,
                        '}' => {
                            *i += 1;
                            return Json::Obj(kvs);
                        }
                        c => panic!("bad obj sep {c}"),
                    }
                }
            }
            '[' => {
                *i += 1;
                let mut arr = Vec::new();
                skip_ws(b, i);
                if b[*i] == ']' {
                    *i += 1;
                    return Json::Arr(arr);
                }
                loop {
                    arr.push(parse_value(b, i));
                    skip_ws(b, i);
                    match b[*i] {
                        ',' => *i += 1,
                        ']' => {
                            *i += 1;
                            return Json::Arr(arr);
                        }
                        c => panic!("bad arr sep {c}"),
                    }
                }
            }
            '"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != '"' {
                    if b[*i] == '\\' {
                        *i += 1;
                        match b[*i] {
                            'n' => s.push('\n'),
                            'r' => s.push('\r'),
                            't' => s.push('\t'),
                            'u' => {
                                let hex: String = b[*i + 1..*i + 5].iter().collect();
                                let code = u32::from_str_radix(&hex, 16).expect("hex");
                                s.push(char::from_u32(code).expect("scalar"));
                                *i += 4;
                            }
                            c => s.push(c),
                        }
                    } else {
                        s.push(b[*i]);
                    }
                    *i += 1;
                }
                *i += 1;
                Json::Str(s)
            }
            't' => {
                *i += 4;
                Json::Bool(true)
            }
            'f' => {
                *i += 5;
                Json::Bool(false)
            }
            'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && (b[*i].is_ascii_digit() || matches!(b[*i], '-' | '+' | '.' | 'e' | 'E'))
                {
                    *i += 1;
                }
                let s: String = b[start..*i].iter().collect();
                Json::Num(s.parse().expect("number"))
            }
        }
    }

    #[test]
    fn output_is_valid_json_with_all_findings() {
        let violations = vec![
            v(
                "L007",
                "crates/storage/src/store.rs",
                42,
                "mutation bypasses WAL: a → b",
            ),
            v(
                "L010",
                "crates/obs/src/slo.rs",
                7,
                "metric \"query.dedline.hit\"\nnot in registry",
            ),
        ];
        let rules = vec![
            RuleMeta {
                id: "L007",
                description: "wal-before-mutate".into(),
            },
            RuleMeta {
                id: "L010",
                description: "metric-name-registry".into(),
            },
        ];
        let doc = render(&violations, &rules);
        let json = parse_json(&doc);
        assert_eq!(json.get("version").unwrap().str(), "2.1.0");
        let run = &json.get("runs").unwrap().arr()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").unwrap().str(), "bp-lint");
        assert_eq!(driver.get("rules").unwrap().arr().len(), 2);
        let results = run.get("results").unwrap().arr();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ruleId").unwrap().str(), "L007");
        let msg = results[1]
            .get("message")
            .unwrap()
            .get("text")
            .unwrap()
            .str();
        assert!(msg.contains("query.dedline.hit"));
        assert!(msg.contains('\n'));
        let loc = &results[0].get("locations").unwrap().arr()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation")
                .unwrap()
                .get("uri")
                .unwrap()
                .str(),
            "crates/storage/src/store.rs"
        );
        assert_eq!(
            phys.get("region").unwrap().get("startLine").unwrap(),
            &Json::Num(42.0)
        );
    }

    #[test]
    fn empty_report_is_valid() {
        let doc = render(&[], &[]);
        let json = parse_json(&doc);
        let run = &json.get("runs").unwrap().arr()[0];
        assert!(run.get("results").unwrap().arr().is_empty());
    }
}
