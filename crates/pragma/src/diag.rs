//! Diagnostics with source positions.

use std::fmt;

/// A translation diagnostic (error) with a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable message.
    pub message: String,
}

impl Diag {
    /// Build a diagnostic.
    pub fn new(line: usize, col: usize, message: impl Into<String>) -> Self {
        Diag {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error: {} at line {}, column {}",
            self.message, self.line, self.col
        )
    }
}

/// Byte offsets of the line starts of one source text, built once so
/// that each position lookup is a binary search instead of a rescan
/// from byte 0.
#[derive(Debug, Clone)]
pub struct LineIndex<'a> {
    src: &'a str,
    /// Offset of every line's first byte; `starts[0] == 0`. `u32` keeps
    /// the index of a large unit small.
    starts: Vec<u32>,
}

impl<'a> LineIndex<'a> {
    /// Index the lines of `src`.
    ///
    /// # Panics
    ///
    /// If `src` is 4 GiB or longer.
    pub fn new(src: &'a str) -> Self {
        assert!(
            u32::try_from(src.len()).is_ok(),
            "source of {} bytes: line offsets are 32-bit",
            src.len()
        );
        let starts = std::iter::once(0)
            .chain(src.match_indices('\n').map(|(i, _)| i as u32 + 1))
            .collect();
        LineIndex { src, starts }
    }

    /// Convert a byte offset to a 1-based `(line, col)` pair: `col` counts
    /// the chars of the line that start before `offset`, plus one (an
    /// offset inside a multi-byte char counts that char). Offsets past
    /// the end clamp to the end.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let offset = offset.min(self.src.len());
        // Lines whose first byte is at or before `offset`; the last of
        // them holds it (a line starts right after its `\n`).
        let line = self.starts.partition_point(|&s| s as usize <= offset);
        let start = self.starts[line - 1] as usize;
        let col = self.src.as_bytes()[start..offset]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        (line, col + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `LineIndex` must agree with: walk the chars.
    fn line_col_by_scan(src: &str, offset: usize) -> (usize, usize) {
        let clamped = offset.min(src.len());
        let (mut line, mut col) = (1, 1);
        for (i, ch) in src.char_indices() {
            if i >= clamped {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    #[test]
    fn line_col_basics() {
        let src = "abc\ndef\nghi";
        let ix = LineIndex::new(src);
        assert_eq!(ix.line_col(0), (1, 1));
        assert_eq!(ix.line_col(2), (1, 3));
        assert_eq!(ix.line_col(3), (1, 4)); // the `\n` itself
        assert_eq!(ix.line_col(4), (2, 1));
        assert_eq!(ix.line_col(9), (3, 2));
        // Past the end clamps.
        assert_eq!(ix.line_col(1000), (3, 4));

        // Columns count chars, not bytes: `é` is 2 bytes, `€` 3, `𝄞` 4.
        // Offsets 2, 5 and 6 are just after `é`, `€` and `x`; 11 just
        // after `𝄞`.
        let src = "é€x\n𝄞y\n";
        let ix = LineIndex::new(src);
        assert_eq!(ix.line_col(2), (1, 2));
        assert_eq!(ix.line_col(5), (1, 3));
        assert_eq!(ix.line_col(6), (1, 4));
        assert_eq!(ix.line_col(7), (2, 1));
        assert_eq!(ix.line_col(11), (2, 2));
        // An offset inside a multi-byte char counts that char.
        assert_eq!(ix.line_col(1), (1, 2));
        assert_eq!(ix.line_col(3), (1, 3));
        assert_eq!(ix.line_col(9), (2, 2));
        // Trailing newline: the empty last line.
        assert_eq!(ix.line_col(src.len()), (3, 1));

        for src in ["", "\n", "\n\n", "a\r\nb", "é€x\n𝄞y\n", "abc\ndef\nghi"] {
            let ix = LineIndex::new(src);
            for offset in 0..=src.len() + 2 {
                assert_eq!(
                    ix.line_col(offset),
                    line_col_by_scan(src, offset),
                    "{src:?} at {offset}"
                );
            }
        }
    }

    #[test]
    fn display_format() {
        let d = Diag::new(3, 7, "unknown clause `foo`");
        assert_eq!(
            d.to_string(),
            "error: unknown clause `foo` at line 3, column 7"
        );
    }
}
