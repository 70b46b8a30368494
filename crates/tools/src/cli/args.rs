//! The one flag grammar every `tempest` command parses with.
//!
//! A command declares its flags in strings, getopt style: a flag written
//! with a trailing `=` takes a value, any other is a switch. An argument
//! that starts with `--` must be a declared flag; everything else is a
//! positional. A value flag takes the next argument unless it is missing
//! or is itself a flag. Each flag may appear once. Numbers are parsed
//! when the command reads them, with the flag named in the error.

use super::CliError;
use std::fmt::Display;
use std::str::FromStr;

/// Every flag in `declared`, with whether it takes a value.
pub(crate) fn flags<'a>(
    declared: &'a [&'static str],
) -> impl Iterator<Item = (&'static str, bool)> + 'a {
    let words = declared.iter().copied().flat_map(str::split_whitespace);
    words.map(|f| f.strip_suffix('=').map_or((f, false), |name| (name, true)))
}

/// A command line checked against its command's declared flags.
pub(crate) struct Args {
    command: &'static str,
    declared: &'static [&'static str],
    positional: Vec<String>,
    /// Each flag given, with its value (`None` for a switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Split `args` into positionals and `declared` flags, refusing an
    /// undeclared flag, a value flag without its value and a repeated flag.
    pub(crate) fn parse(
        command: &'static str,
        declared: &'static [&'static str],
        args: &[String],
    ) -> Result<Args, CliError> {
        let mut parsed = Args {
            command,
            declared,
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.positional.push(arg.clone());
                continue;
            }
            let Some((name, takes_value)) = parsed.declared(arg) else {
                return Err(parsed.error(format!("unknown flag `{arg}`")));
            };
            if parsed.given.iter().any(|(given, _)| *given == name) {
                return Err(parsed.error(format!("{arg} given twice")));
            }
            let value = it.next_if(|v| takes_value && !v.starts_with("--"));
            if takes_value && value.is_none() {
                return Err(parsed.error(format!("{arg} needs a value")));
            }
            parsed.given.push((name, value.cloned()));
        }
        Ok(parsed)
    }

    fn declared(&self, name: &str) -> Option<(&'static str, bool)> {
        flags(self.declared).find(|(flag, _)| *flag == name)
    }

    fn given(&self, name: &str, takes_value: bool) -> Option<&Option<String>> {
        let declared = self.declared(name).map(|(_, v)| v);
        debug_assert_eq!(declared, Some(takes_value), "{}: {name}", self.command);
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// A usage error (exit code 2) prefixed with the command's name.
    pub(crate) fn error(&self, message: impl Display) -> CliError {
        CliError::usage(format!("{}: {message}", self.command))
    }

    /// The arguments that are not flags or flag values, in order; a usage
    /// error asking `which {what}?` when there are none.
    pub(crate) fn positional(&self, what: &str) -> Result<&[String], CliError> {
        if self.positional.is_empty() {
            return Err(self.error(format!("which {what}?")));
        }
        Ok(&self.positional)
    }

    /// Whether the switch `name` was given.
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.given(name, false).is_some()
    }

    /// The value of `name`, if given.
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.given(name, true).and_then(|v| v.as_deref())
    }

    /// The value of `name` parsed as a `T`, if given.
    pub(crate) fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| self.error(format!("{name} `{v}`: {e}")))
        };
        self.value(name).map(parse).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse("test", &["--recover --jobs= --out="], &args)
    }

    #[test]
    fn switches_take_no_value_and_values_take_the_next_argument() {
        let args = parse(&["--recover", "a.trace", "--jobs", "4", "b.trace"]).unwrap();
        assert_eq!(args.positional("file").unwrap(), ["a.trace", "b.trace"]);
        assert!(args.switch("--recover"));
        assert_eq!(args.number::<usize>("--jobs").unwrap(), Some(4));
        assert_eq!(args.value("--out"), None);
        // Single-dash arguments are values and positionals.
        let args = parse(&["--out", "-", "-1"]).unwrap();
        assert_eq!(args.value("--out"), Some("-"));
        assert_eq!(args.positional("file").unwrap(), ["-1"]);
    }

    #[test]
    fn malformed_flags_are_usage_errors_naming_the_flag() {
        for (args, message) in [
            (&["a.trace", "--recovr"][..], "unknown flag `--recovr`"),
            (&["--recovr", "a.trace"], "unknown flag `--recovr`"),
            (&["--jobs=4"], "unknown flag `--jobs=4`"),
            (&["a.trace", "--jobs"], "--jobs needs a value"),
            (&["--out", "--recover"], "--out needs a value"),
            (&["--jobs", "2", "--jobs", "4"], "--jobs given twice"),
            (&["--recover", "--recover"], "--recover given twice"),
        ] {
            let err = parse(args).err().expect("must be refused");
            assert_eq!(err.code, 2, "{args:?}");
            assert_eq!(err.message, format!("test: {message}"), "{args:?}");
        }
        assert_eq!(
            parse(&[])
                .unwrap()
                .positional("trace file")
                .err()
                .unwrap()
                .message,
            "test: which trace file?"
        );
        let args = parse(&["--jobs", "lots"]).unwrap();
        let err = args.number::<usize>("--jobs").err().unwrap();
        assert_eq!(err.code, 2);
        assert!(
            err.message == "test: --jobs `lots`: invalid digit found in string",
            "{}",
            err.message
        );
    }
}
