//! Shard transports: the [`ShardTransport`] trait the fleet client
//! drives, a buffered [`FramedTransport`] over any byte stream, and the
//! in-memory [`LoopbackConn`] duplex for offline tests.

use crate::frame::{read_frame, MAX_FRAME};
use crate::msg::{
    encode_snapshot_chunk, tag, CompactAck, IngestAck, RoundReply, Snapshot, SnapshotAck, Start,
    StopCheck, WireIngest, SNAPSHOT_CHUNK_BYTES, WIRE_VERSION,
};
use crate::WireError;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Frame/byte counters for one transport direction pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames queued for sending.
    pub frames_sent: u64,
    /// Bytes flushed to the stream (length prefixes included).
    pub bytes_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Bytes received (length prefixes included).
    pub bytes_received: u64,
}

/// The client side of one shard connection.
///
/// Sends are *queued*: nothing hits the stream until [`flush`], so the
/// fleet client can write every shard's request before reading any reply
/// — the pipelining that makes round latency max-of-shards instead of
/// sum. The `recv_*` methods flush implicitly, so a forgotten flush
/// degrades to unpipelined, never to deadlock.
///
/// [`flush`]: ShardTransport::flush
pub trait ShardTransport: Send {
    /// Queue a [`Start`] request.
    fn send_start(&mut self, msg: &Start) -> Result<(), WireError>;
    /// Queue a next-round request.
    fn send_next_round(&mut self) -> Result<(), WireError>;
    /// Queue a [`StopCheck`] probe.
    fn send_stop_check(&mut self, msg: &StopCheck) -> Result<(), WireError>;
    /// Queue an end-of-query notice.
    fn send_end_query(&mut self) -> Result<(), WireError>;
    /// Queue an ingest shipment.
    fn send_ingest(&mut self, msg: &WireIngest) -> Result<(), WireError>;
    /// Queue a snapshot shipment for a bootstrapping shard server: one
    /// [`Snapshot`] header naming the shard's place in the fleet, then
    /// the snapshot bytes chunked under
    /// [`crate::msg::SNAPSHOT_CHUNK_BYTES`] per frame.
    fn send_snapshot(
        &mut self,
        num_shards: u32,
        shard: u32,
        snapshot: &[u8],
    ) -> Result<(), WireError>;
    /// Queue a compaction request: the shard rebuilds its replica
    /// without tombstoned state and swaps the clean instance in.
    fn send_compact(&mut self) -> Result<(), WireError>;
    /// Queue a shutdown request.
    fn send_shutdown(&mut self) -> Result<(), WireError>;
    /// Push every queued request to the peer.
    fn flush(&mut self) -> Result<(), WireError>;
    /// Receive a [`RoundReply`] into a reused buffer.
    fn recv_round(&mut self, out: &mut RoundReply) -> Result<(), WireError>;
    /// Receive a stop-check reply: the shard's certified rival upper
    /// bound (0 when nothing local can displace the merged selection).
    fn recv_vote(&mut self) -> Result<f64, WireError>;
    /// Receive an [`IngestAck`].
    fn recv_ingest_ack(&mut self, out: &mut IngestAck) -> Result<(), WireError>;
    /// Receive a [`SnapshotAck`].
    fn recv_snapshot_ack(&mut self, out: &mut SnapshotAck) -> Result<(), WireError>;
    /// Receive a [`CompactAck`].
    fn recv_compact_ack(&mut self, out: &mut CompactAck) -> Result<(), WireError>;
    /// Traffic counters so far.
    fn stats(&self) -> TransportStats;
}

/// [`ShardTransport`] over any `Read + Write` byte stream (unix socket,
/// [`LoopbackConn`], ...). Owns reusable encode/decode buffers; the
/// steady-state round exchange allocates nothing.
#[derive(Debug)]
pub struct FramedTransport<S> {
    stream: S,
    out: Vec<u8>,
    payload: Vec<u8>,
    inbuf: Vec<u8>,
    stats: TransportStats,
}

impl<S: Read + Write + Send> FramedTransport<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Self {
        FramedTransport {
            stream,
            out: Vec::new(),
            payload: Vec::new(),
            inbuf: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    fn queue(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
        self.payload.clear();
        encode(&mut self.payload);
        if self.payload.len() > MAX_FRAME as usize {
            return Err(WireError::FrameTooLarge(self.payload.len() as u32));
        }
        self.out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&self.payload);
        self.stats.frames_sent += 1;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<(), WireError> {
        if !self.out.is_empty() {
            ShardTransport::flush(self)?;
        }
        read_frame(&mut self.stream, &mut self.inbuf)?;
        self.stats.frames_received += 1;
        self.stats.bytes_received += 4 + self.inbuf.len() as u64;
        Ok(())
    }
}

impl<S: Read + Write + Send> ShardTransport for FramedTransport<S> {
    fn send_start(&mut self, msg: &Start) -> Result<(), WireError> {
        self.queue(|out| msg.encode(out))
    }

    fn send_next_round(&mut self) -> Result<(), WireError> {
        self.queue(|out| out.extend_from_slice(&[WIRE_VERSION, tag::NEXT_ROUND]))
    }

    fn send_stop_check(&mut self, msg: &StopCheck) -> Result<(), WireError> {
        self.queue(|out| msg.encode(out))
    }

    fn send_end_query(&mut self) -> Result<(), WireError> {
        self.queue(|out| out.extend_from_slice(&[WIRE_VERSION, tag::END_QUERY]))
    }

    fn send_ingest(&mut self, msg: &WireIngest) -> Result<(), WireError> {
        self.queue(|out| msg.encode(out))
    }

    fn send_snapshot(
        &mut self,
        num_shards: u32,
        shard: u32,
        snapshot: &[u8],
    ) -> Result<(), WireError> {
        let header = Snapshot {
            num_shards,
            shard,
            total_len: snapshot.len() as u64,
            num_chunks: snapshot.len().div_ceil(SNAPSHOT_CHUNK_BYTES) as u32,
        };
        self.queue(|out| header.encode(out))?;
        for (i, chunk) in snapshot.chunks(SNAPSHOT_CHUNK_BYTES).enumerate() {
            self.queue(|out| encode_snapshot_chunk(out, i as u32, chunk))?;
        }
        Ok(())
    }

    fn send_compact(&mut self) -> Result<(), WireError> {
        self.queue(|out| out.extend_from_slice(&[WIRE_VERSION, tag::COMPACT]))
    }

    fn send_shutdown(&mut self) -> Result<(), WireError> {
        self.queue(|out| out.extend_from_slice(&[WIRE_VERSION, tag::SHUTDOWN]))
    }

    fn flush(&mut self) -> Result<(), WireError> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.out)?;
        self.stats.bytes_sent += self.out.len() as u64;
        self.out.clear();
        self.stream.flush()?;
        Ok(())
    }

    fn recv_round(&mut self, out: &mut RoundReply) -> Result<(), WireError> {
        self.recv_frame()?;
        out.decode_into(&self.inbuf)
    }

    fn recv_vote(&mut self) -> Result<f64, WireError> {
        self.recv_frame()?;
        let mut r = crate::codec::Reader::new(&self.inbuf);
        let v = r.u8()?;
        if v != WIRE_VERSION {
            return Err(WireError::Version(v));
        }
        let t = r.u8()?;
        if t != tag::VOTE {
            return Err(WireError::Tag(t));
        }
        let rival = r.f64()?;
        r.finish()?;
        Ok(rival)
    }

    fn recv_ingest_ack(&mut self, out: &mut IngestAck) -> Result<(), WireError> {
        self.recv_frame()?;
        out.decode_into(&self.inbuf)
    }

    fn recv_snapshot_ack(&mut self, out: &mut SnapshotAck) -> Result<(), WireError> {
        self.recv_frame()?;
        out.decode_into(&self.inbuf)
    }

    fn recv_compact_ack(&mut self, out: &mut CompactAck) -> Result<(), WireError> {
        self.recv_frame()?;
        out.decode_into(&self.inbuf)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[derive(Debug, Default)]
struct PipeState {
    buf: std::collections::VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

/// One end of an in-memory duplex byte stream — the offline stand-in for
/// a socket. Blocking `Read`/`Write`; dropping an end closes both
/// directions, so the peer reads EOF and its writes fail with
/// `BrokenPipe`, mirroring socket hangup. A read parks on a condvar: no
/// measured workload serves over loopback, so the handoff is not tuned.
#[derive(Debug)]
pub struct LoopbackConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

/// Create a connected pair of loopback ends.
pub fn loopback_pair() -> (LoopbackConn, LoopbackConn) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (LoopbackConn { rx: Arc::clone(&a), tx: Arc::clone(&b) }, LoopbackConn { rx: b, tx: a })
}

impl Read for LoopbackConn {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let state = self.rx.state.lock().unwrap();
        let mut state = self.rx.ready.wait_while(state, |s| s.buf.is_empty() && !s.closed).unwrap();
        state.buf.read(out)
    }
}

impl Write for LoopbackConn {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut state = self.tx.state.lock().unwrap();
        if state.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "loopback peer closed",
            ));
        }
        state.buf.extend(bytes);
        drop(state);
        self.tx.ready.notify_one();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for LoopbackConn {
    fn drop(&mut self) {
        for pipe in [&self.rx, &self.tx] {
            pipe.state.lock().unwrap().closed = true;
            pipe.ready.notify_all();
        }
    }
}
