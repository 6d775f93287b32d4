//! Byte-level helpers shared by the handoff-file readers and the name
//! tables: the FNV-1a hash and a line reader over one reused byte
//! buffer.
//!
//! # Examples
//!
//! ```
//! use tc_core::text::{fnv1a, for_each_line};
//!
//! let mut seen = Vec::new();
//! for_each_line("a\r\nbc\nd".as_bytes(), |n, line| {
//!     seen.push((n, line.to_vec()));
//!     Ok(())
//! })?;
//! assert_eq!(seen, [(1, b"a\r".to_vec()), (2, b"bc".to_vec()), (3, b"d".to_vec())]);
//! assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
//! # Ok::<(), tc_core::Error>(())
//! ```

use std::io::BufRead;

use crate::error::{Error, Result};

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hands `visit` every line of `reader` with its 1-based number, without
/// the `\n` (a `\r` before it stays). Each line is read into one buffer
/// reused for every line. The last line needs no `\n`.
///
/// # Errors
///
/// The first `Err` from `visit`, or an I/O error as
/// [`Error::InvalidInput`] naming the line being read.
pub fn for_each_line<R: BufRead>(
    mut reader: R,
    mut visit: impl FnMut(usize, &[u8]) -> Result<()>,
) -> Result<()> {
    let mut line = Vec::new();
    for lineno in 1.. {
        line.clear();
        let n = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| Error::invalid_input(format!("line {lineno}: read: {e}")))?;
        if n == 0 {
            break;
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        visit(lineno, &line)?;
    }
    Ok(())
}

/// `line` as text, or the error a reader gives for a line that is not
/// UTF-8 (the text `BufRead::read_line` reports, under `lineno`).
///
/// # Errors
///
/// [`Error::InvalidInput`] naming `lineno` if `line` is not UTF-8.
pub fn utf8_line(line: &[u8], lineno: usize) -> Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        Error::invalid_input(format!(
            "line {lineno}: read: stream did not contain valid UTF-8"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &[u8], capacity: usize) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        let reader = std::io::BufReader::with_capacity(capacity, text);
        for_each_line(reader, |n, l| {
            out.push((n, l.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn every_buffer_size_gives_the_same_lines() {
        let text = b"first line\n\nthird\r\n a longer fourth line, past small buffers \nlast";
        let want = lines(text, 4096);
        assert_eq!(want.len(), 5);
        assert_eq!(want[1], (2, Vec::new()));
        assert_eq!(want[4], (5, b"last".to_vec()));
        for k in 1..=64 {
            assert_eq!(lines(text, k), want, "buffer of {k} bytes");
        }
        assert!(lines(b"", 8).is_empty());
        assert_eq!(lines(b"x\n", 8), [(1, b"x".to_vec())]);
    }

    #[test]
    fn read_and_visit_errors_name_their_line() {
        struct Failing(usize);
        impl std::io::Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk gone"));
                }
                self.0 -= 1;
                buf[0] = b'\n';
                Ok(1)
            }
        }
        let reader = std::io::BufReader::new(Failing(2));
        let err = for_each_line(reader, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "invalid input: line 3: read: disk gone");
        let err = for_each_line(&b"a\nb\n"[..], |n, _| {
            if n == 2 {
                Err(Error::not_found("b"))
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err(Error::not_found("b")));
        assert_eq!(
            utf8_line(b"\xff", 7).unwrap_err().to_string(),
            "invalid input: line 7: read: stream did not contain valid UTF-8"
        );
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
