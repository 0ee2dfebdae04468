//! Compiler errors.

/// A compilation error with position information where available.
///
/// Positions are byte offsets from the start of the text the caller
/// passed in; the standard library compiled in ahead of it is not
/// counted.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical error.
    Lex {
        /// Byte offset in the caller's source.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// Byte offset in the caller's source.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// Semantic error (unknown names, arity problems, capacity limits).
    Semantic(String),
}

impl CompileError {
    pub(crate) fn sem(msg: impl Into<String>) -> Self {
        CompileError::Semantic(msg.into())
    }
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::Lex { at, message } => write!(f, "lex error at byte {at}: {message}"),
            CompileError::Parse { at, message } => {
                write!(f, "parse error at byte {at}: {message}")
            }
            CompileError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = CompileError::Parse {
            at: 42,
            message: "expected end".into(),
        };
        assert!(e.to_string().contains("42"));
    }
}
