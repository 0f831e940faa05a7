//! Minimal argument parsing (no clap in the offline registry).

use std::collections::BTreeMap;

/// CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError {
    pub message: String,
}

impl CliError {
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

// Deliberately NOT `impl std::error::Error for CliError`: that would make
// the blanket conversion below overlap with core's reflexive `From<T> for T`.
impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::new(e.to_string())
    }
}

/// Options that are presence-only flags: `--stats` takes no value.
const FLAG_KEYS: &[&str] = &["stats"];

/// Parsed command line: a command word, positional arguments,
/// `--key value` options, and presence-only `--flag`s.
#[derive(Debug, Default)]
pub struct Parsed {
    pub command: String,
    pub positionals: Vec<String>,
    pub options: BTreeMap<String, String>,
    pub flags: std::collections::BTreeSet<String>,
}

impl Parsed {
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut it = argv.iter();
        let command = it
            .next()
            .cloned()
            .ok_or_else(|| CliError::new(crate::usage()))?;
        let mut positionals = Vec::new();
        let mut options = BTreeMap::new();
        let mut flags = std::collections::BTreeSet::new();
        while let Some(arg) = it.next() {
            let key = match arg.strip_prefix("--") {
                Some(key) => key,
                None if arg == "-o" => "out",
                None => {
                    positionals.push(arg.clone());
                    continue;
                }
            };
            let first = if FLAG_KEYS.contains(&key) {
                flags.insert(key.to_string())
            } else {
                let value = it.next().cloned().ok_or_else(|| {
                    CliError::new(format!("{} needs a value", crate::spelled(key)))
                })?;
                options.insert(key.to_string(), value).is_none()
            };
            // Keeping either value of a repeated key would silently drop the
            // other (`--rel 1e-5 --rel 1e-2`, `-o a --out b`).
            if !first {
                return Err(CliError::new(format!(
                    "{command}: {} given twice",
                    crate::spelled(key)
                )));
            }
        }
        Ok(Self {
            command,
            positionals,
            options,
            flags,
        })
    }

    /// Whether a presence-only flag (e.g. `--stats`) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    pub fn positional(&self, index: usize, what: &str) -> Result<&str, CliError> {
        self.positionals
            .get(index)
            .map(|s| s.as_str())
            .ok_or_else(|| CliError::new(format!("missing {what}\n{}", crate::usage())))
    }

    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.option(key)
            .ok_or_else(|| CliError::new(format!("missing --{key}")))
    }

    pub fn parse_option<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.option(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::new(format!("cannot parse --{key} {v}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_positionals_options() {
        let p = Parsed::parse(&sv(&[
            "compress", "in.caf", "-o", "out.cz", "--rel", "1e-3",
        ]))
        .unwrap();
        assert_eq!(p.command, "compress");
        assert_eq!(p.positionals, vec!["in.caf"]);
        assert_eq!(p.option("out"), Some("out.cz"));
        assert_eq!(p.option("rel"), Some("1e-3"));
    }

    #[test]
    fn presence_flags_take_no_value() {
        let p = Parsed::parse(&sv(&["query", "s.czs", "--stats", "--region", "0:4,:"])).unwrap();
        assert!(p.flag("stats"));
        assert_eq!(p.option("region"), Some("0:4,:"));
        assert!(!Parsed::parse(&sv(&["query", "s.czs"]))
            .unwrap()
            .flag("stats"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Parsed::parse(&sv(&["gen", "--dims"])).is_err());
        assert!(Parsed::parse(&sv(&["gen", "-o"])).is_err());
    }

    #[test]
    fn repeated_key_is_error_naming_it() {
        let cases: [(&[&str], &str); 4] = [
            (
                &["compress", "t.caf", "--rel", "1e-5", "--rel", "1e-2"],
                "--rel",
            ),
            (&["compress", "t.caf", "-o", "a", "--out", "b"], "-o"),
            (&["compress", "t.caf", "-o", "a", "-o", "b"], "-o"),
            (&["query", "s.czs", "--stats", "--stats"], "--stats"),
        ];
        for (argv, key) in cases {
            let err = Parsed::parse(&sv(argv)).expect_err("repeated key accepted");
            assert_eq!(err.message, format!("{}: {key} given twice", argv[0]));
        }
    }

    #[test]
    fn empty_argv_is_error() {
        assert!(Parsed::parse(&[]).is_err());
    }

    #[test]
    fn parse_option_defaults_and_parses() {
        let p = Parsed::parse(&sv(&["tune", "x", "--rate", "0.5"])).unwrap();
        assert_eq!(p.parse_option("rate", 0.01f64).unwrap(), 0.5);
        assert_eq!(p.parse_option("rel", 1e-3f64).unwrap(), 1e-3);
        assert!(p.parse_option::<f64>("rate", 0.0).is_ok());
        let bad = Parsed::parse(&sv(&["tune", "x", "--rate", "abc"])).unwrap();
        assert!(bad.parse_option("rate", 0.01f64).is_err());
    }
}
