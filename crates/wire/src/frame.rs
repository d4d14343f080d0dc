//! Stream framing: `[u32 LE length][payload]` with a hard size cap.

use crate::WireError;
use std::io::{Read, Write};

/// Largest accepted frame payload (version + tag + body), 64 MiB. Large
/// enough for any realistic shipped [`s3_core::IngestBatch`] (see
/// [`crate::encode_ingest`]); small enough that a corrupt length prefix
/// cannot ask the decoder for an absurd allocation.
pub const MAX_FRAME: u32 = 1 << 26;

/// Write one frame: length prefix + payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    debug_assert!(payload.len() <= MAX_FRAME as usize, "oversized outbound frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one frame's payload into `buf` (reused across calls).
///
/// A clean end-of-stream *between* frames is [`WireError::Eof`]; running
/// dry mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 { WireError::Eof } else { WireError::Truncated });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(())
}
