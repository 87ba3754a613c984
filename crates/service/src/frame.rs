//! Length-prefixed framing for the wire protocol.
//!
//! Every message is one frame: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. The prefix lets both
//! sides read whole messages off a byte stream without scanning for
//! delimiters, and makes the protocol self-describing enough that a
//! confused peer fails fast (length caps at [`MAX_FRAME_BYTES`])
//! instead of deadlocking on a half-read message.
//!
//! Both ends frame over one `Stream` type: a Unix-socket or TCP
//! connection.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;

/// Upper bound on a single frame's payload, protecting the daemon
/// from a garbage length prefix (64 MiB comfortably fits any chip
/// library this workspace generates).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Writes one frame: big-endian `u32` length, then the payload.
///
/// The prefix and payload go out in a single `write_all`: two small
/// writes on a TCP stream interact with Nagle's algorithm and delayed
/// ACKs (a ~40 ms stall per message each way), which turns a
/// microsecond extraction into a 100 ms round trip.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_BYTES`]
/// with [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds cap", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages).
///
/// The payload buffer grows as its bytes arrive, so a length prefix
/// alone never reserves the memory it announces.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] on EOF mid-frame,
/// [`io::ErrorKind::InvalidData`] on an over-cap length prefix, and
/// any underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside frame payload",
        ));
    }
    Ok(Some(payload))
}

/// A connection over either transport `aced` serves.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// A second handle on the same connection.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts down one or both halves of the connection, for every
    /// handle on it.
    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "λ json".as_bytes()).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "λ json".as_bytes());
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // EOF inside the length prefix itself.
        let mut r = Cursor::new(vec![0u8, 0]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut r = Cursor::new(0xFFFF_FFFFu32.to_be_bytes().to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A reader that records the largest buffer it is handed.
    struct Widest<'a>(&'a [u8], usize);

    impl Read for Widest<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = self.1.max(buf.len());
            self.0.read(buf)
        }
    }

    #[test]
    fn a_bare_length_prefix_reserves_nothing() {
        let prefix = (MAX_FRAME_BYTES as u32).to_be_bytes();
        let mut r = Widest(&prefix, 0);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.1 < 1024 * 1024,
            "a 64 MiB prefix was handed {} bytes",
            r.1
        );
    }
}
