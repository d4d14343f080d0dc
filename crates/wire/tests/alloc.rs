//! Steady-state allocation audit of the round exchange's decoders.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up decode has grown every reused buffer to its high-water mark,
//! decoding the same frames again must perform **zero** heap
//! allocations: the client's `RoundReply`, the server's `Start` and
//! `StopCheck` bodies, and the server's request dispatch for every
//! per-round request kind. This is the contract that lets the fleet
//! reuse one buffer per message kind across rounds.
//!
//! Single `#[test]` on purpose: the counter is process-global, so
//! concurrently-running tests would bleed into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use s3_wire::{Message, RequestBuf, RequestKind, RoundReply, SelectionEntry, Start, StopCheck};

/// Counts allocation *events* (alloc + realloc; deallocs are free to
/// ignore — a steady-state path that allocates must call one of these).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn frame(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// The decode targets the client and a server keep across rounds.
#[derive(Default)]
struct Buffers {
    reply: RoundReply,
    start: Start,
    stop: StopCheck,
    requests: RequestBuf,
}

/// Decode every frame once into `bufs`; returns the allocation events
/// counted over the pass.
fn run_pass(bufs: &mut Buffers, frames: &[Vec<u8>; 7]) -> usize {
    let [round, start, stop, next, end, start_again, stop_again] = frames;
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    bufs.reply.decode_into(round).expect("round reply");
    bufs.start.decode_into(start).expect("start");
    bufs.stop.decode_into(stop).expect("stop check");
    let kinds = [
        bufs.requests.read(start_again).expect("start request"),
        bufs.requests.read(next).expect("next-round request"),
        bufs.requests.read(stop_again).expect("stop-check request"),
        bufs.requests.read(end).expect("end-query request"),
    ];
    let events = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    let want =
        [RequestKind::Start, RequestKind::NextRound, RequestKind::StopCheck, RequestKind::EndQuery];
    assert_eq!(kinds, want);
    events
}

#[test]
fn steady_state_round_decodes_allocate_nothing() {
    let reply = RoundReply {
        iteration: 4,
        threshold: 0.75,
        candidates: 12,
        admitted: (0..16).map(|i| (i, 100 + i)).collect(),
        selection: (0..8)
            .map(|i| SelectionEntry { index: i, doc: 100 + i, lower: 0.25, upper: 0.5 })
            .collect(),
        ..RoundReply::default()
    };
    let start = Start { seeker: 7, k: 10, keywords: (0..12).collect() };
    let stop = StopCheck { merged_full: true, min_lower: 0.125, selected: (0..8).collect() };
    let frames = [
        frame(&Message::Round(reply.clone())),
        frame(&Message::Start(start.clone())),
        frame(&Message::StopCheck(stop.clone())),
        frame(&Message::NextRound),
        frame(&Message::EndQuery),
        frame(&Message::Start(start.clone())),
        frame(&Message::StopCheck(stop.clone())),
    ];

    let mut bufs = Buffers::default();
    // Warm-up: the first pass grows every reused buffer.
    run_pass(&mut bufs, &frames);
    let events = run_pass(&mut bufs, &frames);
    assert_eq!(events, 0, "steady-state decodes allocated {events} times after warm-up");

    // The decodes were real, not short-circuited.
    assert_eq!(bufs.reply, reply);
    assert_eq!((&bufs.start, &bufs.stop), (&start, &stop));
    assert_eq!((&bufs.requests.start, &bufs.requests.stop), (&start, &stop));
}
