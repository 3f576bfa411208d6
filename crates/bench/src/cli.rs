//! The one flag parser of the command-line binaries: a cursor over argv.
//!
//! Each subcommand keeps a single `match` over the flags the cursor
//! yields and pulls values with [`Argv::value`] or [`Argv::parse`]. Every
//! malformed or out-of-domain value leaves through [`usage_error`], which
//! prints the message and the usage text and exits with status 2 — at the
//! CLI boundary, because the libraries assert on such values much deeper
//! and would panic.

use std::fmt::Display;
use std::str::FromStr;

/// Prints `error: {msg}` and the usage text to stderr, then exits with
/// status 2 (bad usage).
pub fn usage_error(msg: impl Display, usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// A cursor over command-line arguments. As an [`Iterator`] it yields the
/// next flag (or positional argument); [`Argv::value`] and [`Argv::parse`]
/// consume that flag's value.
pub struct Argv {
    rest: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Argv {
    /// A cursor over `argv` whose errors print `usage`.
    pub fn new(argv: Vec<String>, usage: &'static str) -> Argv {
        Argv {
            rest: argv.into_iter(),
            usage,
        }
    }

    /// The value following `flag`; a usage error when argv ends first.
    pub fn value(&mut self, flag: &str) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.fail(format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed as `T`; a usage error unless it
    /// parses and satisfies `ok`. `domain` names the accepted values in
    /// the error.
    pub fn parse<T>(&mut self, flag: &str, domain: &str, ok: impl Fn(&T) -> bool) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        let raw = self.value(flag);
        match raw.parse::<T>() {
            Ok(v) if ok(&v) => v,
            Ok(_) => self.fail(format!("{flag}: {raw} is not {domain}")),
            Err(e) => self.fail(format!("{flag}: {e}")),
        }
    }

    /// A usage error with this cursor's usage text.
    pub fn fail(&self, msg: impl Display) -> ! {
        usage_error(msg, self.usage)
    }
}

impl Iterator for Argv {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}
