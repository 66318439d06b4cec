//! Property test for the allocation-free data path's frame pool:
//! arbitrary interleavings of alloc, write and recycle on a
//! [`nn_netsim::FramePool`] must never alias a live frame — a buffer
//! handed out holds exactly what its owner wrote, no matter what the
//! freelist did in between, and recycled buffers come back empty.

use nn_netsim::{FrameBuf, FramePool};
use proptest::prelude::*;

proptest! {
    /// Live frames never alias: each allocated frame is stamped with a
    /// unique pattern, and arbitrary alloc/recycle interleavings leave
    /// every live frame's contents intact.
    #[test]
    fn pool_never_aliases_live_frames(ops in proptest::collection::vec(0u8..4, 1..200)) {
        let mut pool = FramePool::new();
        let mut live: Vec<(u64, usize, FrameBuf)> = Vec::new();
        let mut stamp: u64 = 0;

        let check = |tag: u64, len: usize, frame: &FrameBuf| {
            prop_assert_eq!(frame.len(), len);
            for &b in frame.as_slice() {
                prop_assert_eq!(b, (tag % 251) as u8);
            }
            Ok(())
        };

        for op in ops {
            match op {
                // Allocate a frame and stamp it.
                0 | 1 => {
                    stamp += 1;
                    let len = 1 + (stamp as usize * 37) % 200;
                    let mut f = pool.alloc();
                    prop_assert!(f.is_empty(), "pooled buffers come back empty");
                    let byte = (stamp % 251) as u8;
                    for _ in 0..len {
                        f.extend_from_slice(&[byte]);
                    }
                    live.push((stamp, len, f));
                }
                // Recycle the oldest live frame (after verifying it).
                2 => {
                    if !live.is_empty() {
                        let (tag, len, f) = live.remove(0);
                        check(tag, len, &f)?;
                        pool.recycle(f);
                    }
                }
                // Rewrite the newest live frame in place.
                _ => {
                    if let Some((tag, len, f)) = live.last_mut() {
                        *tag += 1000;
                        let byte = (*tag % 251) as u8;
                        for b in f.as_mut_slice() {
                            *b = byte;
                        }
                        let _ = len;
                    }
                }
            }
            // Every live frame still holds exactly its own stamp.
            for (tag, len, f) in &live {
                check(*tag, *len, f)?;
            }
        }
        // Drain: everything still intact at the end.
        for (tag, len, f) in live.drain(..) {
            check(tag, len, &f)?;
            pool.recycle(f);
        }
    }
}
