//! Minimal argument parsing for `browserprov` (no external parser crate).

use std::collections::HashMap;

/// Parsed command line: subcommand, positional args, `--flag value` /
/// `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (`--key` alone stores an empty string).
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// A `--key` consumes the next argument as its value unless that
    /// argument is itself a flag, in which case `--key` is boolean.
    pub fn parse(raw: &[String]) -> Args {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(key) = a.strip_prefix("--") {
                let value = match raw.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        v.clone()
                    }
                    _ => String::new(),
                };
                args.options.insert(key.to_owned(), value);
            } else if args.command.is_empty() {
                args.command = a.clone();
            } else {
                args.positional.push(a.clone());
            }
            i += 1;
        }
        args
    }

    /// String option with default.
    pub fn opt(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .filter(|v| !v.is_empty())
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    /// Integer option of type `T`, `default` when absent.
    ///
    /// # Errors
    ///
    /// Names the option and its value when that value is not a whole
    /// number that fits `T` (an option given without a value included).
    pub fn opt_int<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                let int = std::any::type_name::<T>();
                format!("--{key} takes a whole number ({int}), not {v:?}")
            }),
        }
    }

    /// Boolean flag presence.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        let raw: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        Args::parse(&raw)
    }

    #[test]
    fn command_and_positionals() {
        let a = parse("search rosebud flower");
        assert_eq!(a.command, "search");
        assert_eq!(a.positional, vec!["rosebud", "flower"]);
    }

    #[test]
    fn options_with_values() {
        let a = parse("generate --days 79 --seed 42 --out events.log");
        assert_eq!(a.opt_int("days", 0u32), Ok(79));
        assert_eq!(a.opt_int("seed", 0u64), Ok(42));
        assert_eq!(a.opt("out", ""), "events.log");
    }

    #[test]
    fn boolean_flags() {
        let a = parse("search rosebud --textual --profile p");
        assert!(a.has("textual"));
        assert_eq!(a.opt("profile", ""), "p");
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("stats");
        assert_eq!(a.opt("profile", "./profile"), "./profile");
        assert_eq!(a.opt_int("days", 7u32), Ok(7));
    }

    #[test]
    fn malformed_integers_are_errors() {
        let a = parse("serve --port 8O8O --days -3 --seed --radius 2 --depth 4294967297");
        assert_eq!(
            a.opt_int("port", 0u16),
            Err("--port takes a whole number (u16), not \"8O8O\"".to_owned())
        );
        assert!(a.opt_int("days", 7u32).unwrap_err().contains("\"-3\""));
        assert!(a.opt_int("seed", 42u64).unwrap_err().contains("--seed"));
        assert!(a.opt_int("depth", 6u32).unwrap_err().contains("(u32)"));
        assert_eq!(a.opt_int("radius", 0usize), Ok(2));
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let a = parse("x --a --b v");
        assert_eq!(a.options["a"], "");
        assert_eq!(a.options["b"], "v");
    }

    #[test]
    fn empty_input() {
        let a = Args::parse(&[]);
        assert!(a.command.is_empty());
    }
}
