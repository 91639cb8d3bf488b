//! Protocol-substrate integration: chunked messages racing over simulated
//! rails, reassembled and re-sequenced on the receive side — the machinery
//! the paper's planned MPICH2-Nemesis integration would sit on.

use bytes::Bytes;
use nm_model::TransferMode;
use nm_proto::{split_by_ratios, Reassembler, Sequencer};
use nm_sim::{ClusterSpec, NodeId, RailId, SendSpec, SimEvent, Simulator};
use std::collections::HashMap;

/// Sends `n_msgs` messages of one flow, each hetero-chunked over both
/// rails; the receive side reassembles chunks and sequences messages.
/// Asserts bytes and order both survive physical reordering.
#[test]
fn multiplexed_flow_survives_rail_races() {
    let n_msgs = 6u64;
    let msg_len = 300_000u64;
    let ratios = [0.58, 0.42];

    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    // Source data: message m is filled with byte (m * 7).
    let content = |m: u64| vec![(m * 7) as u8; msg_len as usize];

    // Submit every chunk of every message; chunk completion order on the
    // wire is rail-dependent, so later messages' fast-rail chunks overtake
    // earlier messages' slow-rail chunks.
    let mut chunk_of = HashMap::new();
    for m in 0..n_msgs {
        for c in split_by_ratios(msg_len, &ratios) {
            let id = sim.submit(
                SendSpec::simple(NodeId(0), NodeId(1), RailId(c.index as usize), c.len)
                    .with_mode(TransferMode::Rendezvous),
            );
            chunk_of.insert(id, (m, c.offset, c.len));
        }
    }

    // Receive side: reassemble each message, then sequence the flow.
    let mut assemblers: HashMap<u64, Reassembler> =
        (0..n_msgs).map(|m| (m, Reassembler::new(msg_len))).collect();
    let mut sequencer: Sequencer<Vec<u8>> = Sequencer::new(n_msgs as usize);
    let mut released: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut release_order = Vec::new();

    let mut events = Vec::new();
    while sim.step(&mut events) {
        for ev in events.drain(..) {
            if let SimEvent::Delivered { transfer, .. } = ev {
                let &(m, offset, len) = chunk_of.get(&transfer).expect("known chunk");
                let data =
                    Bytes::from(content(m)[offset as usize..(offset + len) as usize].to_vec());
                let asm = assemblers.get_mut(&m).expect("assembler");
                if asm.feed(offset, &data).expect("valid chunk") {
                    let msg = assemblers.remove(&m).unwrap().into_message();
                    for out in sequencer.accept(m, msg.to_vec()).expect("sequence") {
                        release_order.push(released.len() as u64);
                        released.push((released.len() as u64, out));
                    }
                }
            }
        }
    }

    assert_eq!(released.len(), n_msgs as usize, "all messages released");
    for (i, (_, data)) in released.iter().enumerate() {
        assert_eq!(data.len(), msg_len as usize);
        assert!(
            data.iter().all(|&b| b == (i as u64 * 7) as u8),
            "message {i} content corrupted or out of order"
        );
    }
}

/// Chunks of one message genuinely arrive out of order across rails
/// (sanity check that the previous test exercises reordering at all).
#[test]
fn rails_do_reorder_chunks() {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    // A big slow-rail chunk first, then a small fast-rail chunk.
    let slow = sim.submit(
        SendSpec::simple(NodeId(0), NodeId(1), RailId(1), 2 << 20)
            .with_mode(TransferMode::Rendezvous),
    );
    let fast = sim.submit(
        SendSpec::simple(NodeId(0), NodeId(1), RailId(0), 64 << 10)
            .with_mode(TransferMode::Rendezvous),
    );
    let events = sim.run_until_idle();
    let slow_at = nm_tests::delivered_at(&events, slow);
    let fast_at = nm_tests::delivered_at(&events, fast);
    assert!(fast_at < slow_at, "expected physical reordering");
}
