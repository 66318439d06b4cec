//! The stateless neutralizer (§3 of the paper).
//!
//! A border middlebox of a neutrality-supporting ISP. It keeps **no
//! per-flow state**: every packet carries (nonce, source address) from
//! which the session key `Ks = CMAC(KM, nonce ‖ srcIP)` is recomputed.
//! Any neutralizer of the domain holding the master key can therefore
//! process any packet — the paper's anycast deployment (§3) and the
//! fault-tolerance argument both rest on this property.
//!
//! Per-packet work, matching the paper's §4 cost model exactly:
//! * key-setup packet → one short-RSA **encryption** (cheap, e = 3) under
//!   a one-time key of at most [`MAX_ONETIME_KEY_BYTES`];
//! * data/return packet → one CMAC derivation + one AES block operation.

use nn_crypto::kdf::MasterKey;
use nn_crypto::sealed::AddrSealer;
use nn_crypto::RsaPublicKey;
use nn_netsim::{Context, FrameBuf, IfaceId, Node, RouteTable};
use nn_packet::{
    build_shim_into, parse_shim, shim_flags, Ipv4Addr, Ipv4Cidr, Ipv4Packet, KeyStamp, ShimRepr,
    ShimType,
};
use rand::Rng;

/// Copies the ECN codepoint from a transiting frame onto its rewritten
/// replacement. The §3.4 DSCP guarantee extends to the whole ToS byte:
/// a congestion mark (CE) written by an AQM upstream of the neutralizer
/// must survive the rewrite, or the box would silently break ECN
/// end-to-end (RFC 3168 forbids middleboxes clearing CE).
fn preserve_ecn(incoming_ecn: u8, rebuilt: &mut FrameBuf) {
    Ipv4Packet::new_unchecked(rebuilt.as_mut_slice()).set_ecn(incoming_ecn);
}

nn_netsim::counter_set! {
    /// A neutralizer's counters, `<stats_name>.<field>`. Reports carry
    /// the four that show the neutralizer at work (key setups served,
    /// data forwarded, returns anonymized, plain transit); the error,
    /// cache and rotation counters stay internal. Every frame the box
    /// receives lands in exactly one counter; `data_stamped`, the cache
    /// and the rotation counters count work, not frames.
    struct NeutralizerCounters {
        parse_error: Internal,
        shim_parse_error: Internal,
        transit: Reported,
        shim_transit: Internal,
        emit_parse_error: Internal,
        emit_build_error: Internal,
        no_route: Internal,
        setup_parse_error: Internal,
        setup_bad_pubkey: Internal,
        setup_key_too_long: Internal,
        setup_encrypt_fail: Internal,
        setup_served: Reported,
        data_parse_error: Internal,
        data_expired_epoch: Internal,
        key_cache_hit: Internal,
        key_cache_miss: Internal,
        data_unseal_fail: Internal,
        data_not_customer: Internal,
        data_stamped: Internal,
        data_forwarded: Reported,
        return_parse_error: Internal,
        return_not_customer: Internal,
        return_expired_epoch: Internal,
        return_anonymized: Reported,
        key_rotated: Internal,
    }
}

/// The longest one-time key a neutralizer serves, in modulus bytes: the
/// paper's 512 bits (§3.2). A key setup costs one RSA encryption and a
/// reply the size of the modulus, so without a cap any sender could make
/// one frame cost the box many times the paper's price.
pub const MAX_ONETIME_KEY_BYTES: usize = 64;

/// Timer token for master-key rotation.
const TOKEN_KEY_ROTATION: u64 = 0xFC;

/// Master key with epoch-based rotation (§4 assumes "a neutralizer's
/// master key lasts for an hour"). The epoch id lives in the top byte of
/// every nonce, so key selection is still stateless; the previous epoch
/// stays valid as a grace period so sessions straddle a rotation.
pub struct MasterKeyEpochs {
    current_epoch: u8,
    current: MasterKey,
    previous: Option<(u8, MasterKey)>,
}

impl MasterKeyEpochs {
    /// Starts at epoch 0 with the given key material.
    pub fn new(key: [u8; 16]) -> Self {
        MasterKeyEpochs {
            current_epoch: 0,
            current: MasterKey::new(key),
            previous: None,
        }
    }

    /// Installs fresh key material; the old key remains usable for one
    /// more epoch.
    pub fn rotate(&mut self, key: [u8; 16]) {
        let old_epoch = self.current_epoch;
        let old = std::mem::replace(&mut self.current, MasterKey::new(key));
        self.previous = Some((old_epoch, old));
        self.current_epoch = self.current_epoch.wrapping_add(1);
    }

    /// The epoch new nonces are minted in.
    pub fn current_epoch(&self) -> u8 {
        self.current_epoch
    }

    /// Mints a nonce in the current epoch (top byte = epoch).
    pub fn mint_nonce<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let low: u64 = rng.gen::<u64>() & 0x00ff_ffff_ffff_ffff;
        ((self.current_epoch as u64) << 56) | low
    }

    /// Derives `Ks` for (nonce, source), honoring the nonce's epoch.
    /// Returns `None` for nonces from expired epochs.
    pub fn derive(&self, nonce: u64, src: Ipv4Addr) -> Option<[u8; 16]> {
        let epoch = (nonce >> 56) as u8;
        if epoch == self.current_epoch {
            Some(self.current.derive_ks(nonce, src.to_u32()))
        } else if let Some((prev_epoch, prev)) = &self.previous {
            (epoch == *prev_epoch).then(|| prev.derive_ks(nonce, src.to_u32()))
        } else {
            None
        }
    }

    /// Whether nonces minted in `epoch` are still derivable (current
    /// epoch, or the previous one within its grace window).
    pub fn epoch_is_live(&self, epoch: u8) -> bool {
        epoch == self.current_epoch || self.previous.as_ref().is_some_and(|(e, _)| *e == epoch)
    }
}

/// A one-entry memo over [`MasterKeyEpochs::derive`]: the last
/// `(nonce, src)` this box derived, with the address sealer keyed by its
/// `Ks`.
///
/// The neutralizer is *logically* stateless — any box can derive any
/// flow's key from the packet alone, which is what the anycast
/// deployment rests on — but a session's packets arrive back to back,
/// so remembering the last derivation turns the per-packet CMAC and AES
/// key schedule into a comparison. A cell runs one neutralized session
/// per box, and a failover moves it whole to the other box, so one entry
/// hits exactly as often as a bigger cache would. Correctness
/// properties:
///
/// * a hit re-checks the nonce's epoch byte against the live epochs, and
///   [`rotate`](Self::rotate) forgets a memo whose epoch just died, so the
///   memo can never resurrect an expired epoch (nor confuse a wrapped
///   epoch byte with an ancient key);
/// * switched off, it derives on every packet: the fully stateless data
///   path of the paper's §4 cost model.
pub struct KeyMemo {
    keys: MasterKeyEpochs,
    enabled: bool,
    /// The last derivation's `(nonce, src)` and sealer. Switched off, it
    /// only holds the sealer the caller borrows.
    last: Option<(u64, Ipv4Addr, AddrSealer)>,
}

impl KeyMemo {
    /// Wraps the epoch machinery; `enabled` false derives on every call.
    pub fn new(keys: MasterKeyEpochs, enabled: bool) -> Self {
        KeyMemo {
            keys,
            enabled,
            last: None,
        }
    }

    /// The wrapped epoch machinery.
    fn epochs(&self) -> &MasterKeyEpochs {
        &self.keys
    }

    /// Rotates the master key and forgets the memo if its epoch just fell
    /// out of the grace window.
    pub fn rotate(&mut self, key: [u8; 16]) {
        self.keys.rotate(key);
        if let Some((nonce, ..)) = self.last {
            if !self.keys.epoch_is_live((nonce >> 56) as u8) {
                self.last = None;
            }
        }
    }

    /// The address sealer keyed by `Ks(nonce, src)`, plus whether the
    /// memo already held it. `None` when the nonce's epoch is not live.
    pub fn sealer(&mut self, nonce: u64, src: Ipv4Addr) -> Option<(&AddrSealer, bool)> {
        let hit = self.enabled
            && self.keys.epoch_is_live((nonce >> 56) as u8)
            && matches!(self.last, Some((n, s, _)) if (n, s) == (nonce, src));
        if !hit {
            let ks = self.keys.derive(nonce, src)?;
            self.last = Some((nonce, src, AddrSealer::new(&ks)));
        }
        self.last.as_ref().map(|(.., sealer)| (sealer, hit))
    }
}

/// Static configuration of a neutralizer box.
pub struct NeutralizerConfig {
    /// The anycast service address all customers publish (§3).
    pub anycast: Ipv4Addr,
    /// Customer prefixes this neutralizer serves ("inside" the domain).
    pub domain: Vec<Ipv4Cidr>,
    /// Rotate the master key automatically at this interval (§4's
    /// one-hour lifetime), if set.
    pub key_lifetime: Option<std::time::Duration>,
    /// Memoize the last derived key ([`KeyMemo`]); false derives `Ks` on
    /// every packet, the fully stateless data path.
    pub key_cache: bool,
    /// Name prefix for statistics counters.
    pub stats_name: String,
}

impl NeutralizerConfig {
    /// A minimal config: anycast address + served domain.
    pub fn new(anycast: Ipv4Addr, domain: Vec<Ipv4Cidr>) -> Self {
        NeutralizerConfig {
            anycast,
            domain,
            key_lifetime: None,
            key_cache: true,
            stats_name: "neutralizer".to_string(),
        }
    }
}

/// The neutralizer node: border router + neutralization functions.
pub struct NeutralizerNode {
    config: NeutralizerConfig,
    keys: KeyMemo,
    routes: RouteTable,
    ids: NeutralizerCounters,
}

impl NeutralizerNode {
    /// Builds a neutralizer with the given master key material.
    pub fn new(config: NeutralizerConfig, master_key: [u8; 16]) -> Self {
        let keys = KeyMemo::new(MasterKeyEpochs::new(master_key), config.key_cache);
        NeutralizerNode {
            keys,
            routes: RouteTable::new(),
            ids: NeutralizerCounters::default(),
            config,
        }
    }

    /// Installs the forwarding table.
    pub fn set_routes(&mut self, routes: RouteTable) {
        self.routes = routes;
    }

    fn in_domain(&self, addr: Ipv4Addr) -> bool {
        self.config.domain.iter().any(|p| p.contains(addr))
    }

    /// Sends `frame` toward its destination and returns whether it left.
    /// A frame that cannot leave is counted here and recycled.
    fn route_out(&mut self, ctx: &mut Context, frame: FrameBuf) -> bool {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else {
            ctx.stats.bump(self.ids.emit_parse_error);
            ctx.recycle(frame);
            return false;
        };
        match self.routes.lookup(ip.dst_addr()) {
            Some(iface) => {
                ctx.send(iface, frame);
                true
            }
            None => {
                ctx.stats.bump(self.ids.no_route);
                ctx.recycle(frame);
                false
            }
        }
    }

    /// Builds a shim frame into a pooled buffer and routes it out,
    /// optionally restoring an ECN codepoint onto the rewrite. The
    /// rewrite path reuses recycled buffers instead of rebuilding frames
    /// from scratch — the §4 "commodity hardware" cost story depends on
    /// the per-packet path staying off the allocator. Returns whether the
    /// frame left; one that could not be built (a stamp can push a full
    /// frame past the IPv4 limit) or routed is counted here.
    #[allow(clippy::too_many_arguments)]
    fn emit_shim(
        &mut self,
        ctx: &mut Context,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        dscp: u8,
        shim: &ShimRepr,
        payload: &[u8],
        ecn: Option<u8>,
    ) -> bool {
        let Some(mut out) =
            ctx.alloc_built(|buf| build_shim_into(buf, src, dst, dscp, shim, payload))
        else {
            ctx.stats.bump(self.ids.emit_build_error);
            return false;
        };
        if let Some(codepoint) = ecn {
            preserve_ecn(codepoint, &mut out);
        }
        self.route_out(ctx, out)
    }

    /// §3.2 key setup: one cheap RSA encryption.
    fn handle_key_setup(&mut self, ctx: &mut Context, frame: &[u8]) {
        let Ok(parsed) = parse_shim(frame) else {
            ctx.stats.bump(self.ids.setup_parse_error);
            return;
        };
        // The key's 2-byte length field is read before any big-number
        // work: a longer key is refused without a Montgomery context.
        if let Some(&[hi, lo]) = parsed.payload.get(..2) {
            if usize::from(u16::from_be_bytes([hi, lo])) > MAX_ONETIME_KEY_BYTES {
                ctx.stats.bump(self.ids.setup_key_too_long);
                return;
            }
        }
        let Ok((pubkey, _)) = RsaPublicKey::from_wire(parsed.payload) else {
            ctx.stats.bump(self.ids.setup_bad_pubkey);
            return;
        };
        // Fresh mints bypass the cache: a setup nonce is seen once here.
        let nonce = self.keys.epochs().mint_nonce(ctx.rng);
        let ks = self
            .keys
            .epochs()
            .derive(nonce, parsed.ip.src)
            .expect("minted nonce is current-epoch");

        // RSA-encrypt (nonce ‖ Ks) under the one-time key.
        let mut msg = Vec::with_capacity(24);
        msg.extend_from_slice(&nonce.to_be_bytes());
        msg.extend_from_slice(&ks);
        let Ok(ct) = pubkey.encrypt(ctx.rng, &msg) else {
            ctx.stats.bump(self.ids.setup_encrypt_fail);
            return;
        };
        let shim = ShimRepr {
            shim_type: ShimType::KeyReply,
            flags: 0,
            nonce: 0,
            addr_block: ShimRepr::EMPTY_BLOCK,
            stamp: None,
        };
        if self.emit_shim(
            ctx,
            self.config.anycast,
            parsed.ip.src,
            parsed.ip.dscp,
            &shim,
            &ct,
            None,
        ) {
            ctx.stats.bump(self.ids.setup_served);
        }
    }

    /// §3.2 forward data path: derive Ks, open the sealed destination,
    /// stamp a fresh key on request, rewrite, forward.
    fn handle_data(&mut self, ctx: &mut Context, frame: &[u8]) {
        let Ok(parsed) = parse_shim(frame) else {
            ctx.stats.bump(self.ids.data_parse_error);
            return;
        };
        let (opened, cache_hit) = match self.keys.sealer(parsed.shim.nonce, parsed.ip.src) {
            None => {
                ctx.stats.bump(self.ids.data_expired_epoch);
                return;
            }
            Some((sealer, hit)) => (sealer.open(parsed.shim.nonce, &parsed.shim.addr_block), hit),
        };
        ctx.stats.bump(if cache_hit {
            self.ids.key_cache_hit
        } else {
            self.ids.key_cache_miss
        });
        let Ok(dst_raw) = opened else {
            ctx.stats.bump(self.ids.data_unseal_fail);
            return;
        };
        let real_dst = Ipv4Addr(dst_raw);
        if !self.in_domain(real_dst) {
            // The neutralizer serves its own customers only (§3).
            ctx.stats.bump(self.ids.data_not_customer);
            return;
        }
        let stamp = if parsed.shim.flags & shim_flags::KEY_REQUEST != 0 {
            let nonce2 = self.keys.epochs().mint_nonce(ctx.rng);
            let ks2 = self
                .keys
                .epochs()
                .derive(nonce2, parsed.ip.src)
                .expect("minted nonce is current-epoch");
            Some(KeyStamp {
                nonce: nonce2,
                key: ks2,
            })
        } else {
            None
        };
        // The addr_block is free on the inside leg (the sealed
        // destination was just opened), so stamp the serving provider's
        // service address into it: a multihomed customer returns traffic
        // via whichever neutralizer actually forwarded the session's
        // packets (§3.5), which is what makes mid-run provider failover
        // transparent to the destination.
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: parsed.shim.flags & shim_flags::KEY_REQUEST,
            nonce: parsed.shim.nonce,
            addr_block: ShimRepr::plain_addr_block(self.config.anycast),
            stamp,
        };
        // DSCP is preserved (§3.4): tiered service still works. So is
        // the ECN codepoint — upstream CE marks reach the destination.
        let ecn_in = Ipv4Packet::new_checked(frame).map(|p| p.ecn()).unwrap_or(0);
        if self.emit_shim(
            ctx,
            parsed.ip.src,
            real_dst,
            parsed.ip.dscp,
            &shim,
            parsed.payload,
            Some(ecn_in),
        ) {
            ctx.stats.bump(self.ids.data_forwarded);
            if shim.stamp.is_some() {
                ctx.stats.bump(self.ids.data_stamped);
            }
        }
    }

    /// §3.2 return path: seal the customer's address under the key bound
    /// to the *outside* initiator, hide the source behind the anycast,
    /// forward.
    fn handle_return(&mut self, ctx: &mut Context, frame: &[u8]) {
        let Ok(parsed) = parse_shim(frame) else {
            ctx.stats.bump(self.ids.return_parse_error);
            return;
        };
        if !self.in_domain(parsed.ip.src) {
            ctx.stats.bump(self.ids.return_not_customer);
            return;
        }
        let initiator = ShimRepr::addr_from_plain_block(&parsed.shim.addr_block);
        // Both directions derive from (nonce, outside address), so the
        // return path shares the forward path's memo.
        let (sealed, cache_hit) = match self.keys.sealer(parsed.shim.nonce, initiator) {
            None => {
                ctx.stats.bump(self.ids.return_expired_epoch);
                return;
            }
            Some((sealer, hit)) => (sealer.seal(parsed.shim.nonce, parsed.ip.src.to_u32()), hit),
        };
        ctx.stats.bump(if cache_hit {
            self.ids.key_cache_hit
        } else {
            self.ids.key_cache_miss
        });
        let shim = ShimRepr {
            shim_type: ShimType::Return,
            flags: shim_flags::ANONYMIZED,
            nonce: parsed.shim.nonce,
            addr_block: sealed,
            stamp: None,
        };
        // DSCP and ECN survive the anonymizing rewrite, like the
        // forward path.
        let ecn_in = Ipv4Packet::new_checked(frame).map(|p| p.ecn()).unwrap_or(0);
        if self.emit_shim(
            ctx,
            self.config.anycast,
            initiator,
            parsed.ip.dscp,
            &shim,
            parsed.payload,
            Some(ecn_in),
        ) {
            ctx.stats.bump(self.ids.return_anonymized);
        }
    }
}

impl Node for NeutralizerNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = NeutralizerCounters::register(ctx.stats, &self.config.stats_name);
        if let Some(lifetime) = self.config.key_lifetime {
            ctx.set_timer(lifetime, TOKEN_KEY_ROTATION);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else {
            ctx.stats.bump(self.ids.parse_error);
            ctx.recycle(frame);
            return;
        };
        let (dst, protocol) = (ip.dst_addr(), ip.protocol());
        if protocol != nn_packet::proto::SHIM {
            // Plain traffic transits the border router untouched (§3.4's
            // opt-out: the neutralizer service is optional).
            if self.route_out(ctx, frame) {
                ctx.stats.bump(self.ids.transit);
            }
            return;
        }
        let Ok(shim_view) = nn_packet::ShimPacket::new_checked(&frame[20..]) else {
            ctx.stats.bump(self.ids.shim_parse_error);
            ctx.recycle(frame);
            return;
        };
        let for_service = dst == self.config.anycast;
        match shim_view.shim_type() {
            ShimType::KeySetup if for_service => self.handle_key_setup(ctx, &frame),
            ShimType::Data if for_service => self.handle_data(ctx, &frame),
            ShimType::Return if for_service => self.handle_return(ctx, &frame),
            _ => {
                // Shim traffic in transit (e.g. toward some other domain's
                // neutralizer, or replies flowing outward).
                if self.route_out(ctx, frame) {
                    ctx.stats.bump(self.ids.shim_transit);
                }
                return;
            }
        }
        // Every handled (non-transit) frame terminates at this box; its
        // buffer seeds the pool the reply was drawn from.
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if token != TOKEN_KEY_ROTATION {
            return;
        }
        let fresh: [u8; 16] = ctx.rng.gen();
        self.keys.rotate(fresh);
        ctx.stats.bump(self.ids.key_rotated);
        if let Some(lifetime) = self.config.key_lifetime {
            ctx.set_timer(lifetime, TOKEN_KEY_ROTATION);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epoch_nonce_carries_epoch_byte() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut keys = MasterKeyEpochs::new([1u8; 16]);
        assert_eq!(keys.mint_nonce(&mut rng) >> 56, 0);
        keys.rotate([2u8; 16]);
        assert_eq!(keys.mint_nonce(&mut rng) >> 56, 1);
        assert_eq!(keys.current_epoch(), 1);
    }

    #[test]
    fn derive_honors_epochs_with_grace() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut keys = MasterKeyEpochs::new([1u8; 16]);
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let old_nonce = keys.mint_nonce(&mut rng);
        let old_key = keys.derive(old_nonce, src).unwrap();

        keys.rotate([2u8; 16]);
        // Grace: previous epoch still derivable, same value.
        assert_eq!(keys.derive(old_nonce, src), Some(old_key));
        let new_nonce = keys.mint_nonce(&mut rng);
        assert!(keys.derive(new_nonce, src).is_some());

        keys.rotate([3u8; 16]);
        // Two rotations later the original epoch is dead.
        assert_eq!(keys.derive(old_nonce, src), None);
    }

    #[test]
    fn key_memo_honors_epochs_with_grace() {
        // The memo must replay derive_honors_epochs_with_grace exactly: a
        // grace-epoch hit stays valid, a dead epoch is refused, and the
        // rotation that kills an epoch forgets its key for good.
        let mut rng = StdRng::seed_from_u64(2);
        let mut memo = KeyMemo::new(MasterKeyEpochs::new([1u8; 16]), true);
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let addr = 0x0a00_00ff;
        let old_nonce = memo.epochs().mint_nonce(&mut rng);
        let old_key = MasterKeyEpochs::new([1u8; 16])
            .derive(old_nonce, src)
            .unwrap();
        let sealed = AddrSealer::new(&old_key).seal(old_nonce, addr);
        let seal = |memo: &mut KeyMemo| {
            memo.sealer(old_nonce, src)
                .map(|(sealer, hit)| (sealer.seal(old_nonce, addr), hit))
        };
        assert_eq!(seal(&mut memo), Some((sealed, false)));
        assert_eq!(seal(&mut memo), Some((sealed, true)));

        memo.rotate([2u8; 16]);
        // Grace: the memo survives the rotation and hits with the same key.
        assert_eq!(seal(&mut memo), Some((sealed, true)));

        memo.rotate([3u8; 16]);
        // Two rotations later the original epoch is dead and refused.
        assert_eq!(seal(&mut memo), None);

        // 254 more rotations wrap the epoch byte back to the old nonce's
        // value. Only the purge stops a stale hit here: the wrapped nonce
        // must derive fresh under the new master key.
        for round in 0..254u16 {
            memo.rotate([round as u8; 16]);
        }
        assert_eq!(memo.epochs().current_epoch(), (old_nonce >> 56) as u8);
        let (rewrapped, hit) = seal(&mut memo).unwrap();
        assert!(!hit, "a wrapped epoch derives fresh");
        assert_ne!(rewrapped, sealed);
    }

    #[test]
    fn key_memo_off_derives_every_packet() {
        let mut memo = KeyMemo::new(MasterKeyEpochs::new([4u8; 16]), false);
        let src = Ipv4Addr::new(10, 2, 0, 1);
        let key = MasterKeyEpochs::new([4u8; 16]).derive(5, src).unwrap();
        let expect = AddrSealer::new(&key).seal(5, 9);
        for _ in 0..3 {
            let (sealer, hit) = memo.sealer(5, src).unwrap();
            assert!(!hit, "a memo switched off never hits");
            assert_eq!(sealer.seal(5, 9), expect);
        }
    }

    #[test]
    fn key_memo_sealer_matches_fresh_sealer() {
        // A memo-hit sealer must produce byte-identical output to one
        // built fresh from the stateless derivation, and a new nonce or a
        // new source replaces the memo.
        let mut memo = KeyMemo::new(MasterKeyEpochs::new([8u8; 16]), true);
        let reference = MasterKeyEpochs::new([8u8; 16]);
        let addr = 0x0a00_00ffu32;
        let (a, b) = (Ipv4Addr::new(88, 1, 2, 3), Ipv4Addr::new(88, 1, 2, 4));
        for (nonce, src) in [(0x0042_4242, a), (0x0042_4243, a), (0x0042_4243, b)] {
            let expect = AddrSealer::new(&reference.derive(nonce, src).unwrap()).seal(nonce, addr);
            for round in 0..2 {
                let (sealer, hit) = memo.sealer(nonce, src).unwrap();
                assert_eq!(hit, round == 1);
                assert_eq!(sealer.seal(nonce, addr), expect);
                assert_eq!(sealer.open(nonce, &expect).unwrap(), addr);
            }
        }
    }

    #[test]
    fn derive_rejects_future_epochs() {
        let keys = MasterKeyEpochs::new([1u8; 16]);
        let forged = (7u64 << 56) | 12345;
        assert_eq!(keys.derive(forged, Ipv4Addr::new(1, 2, 3, 4)), None);
    }

    const OUTSIDE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 5);
    const CUSTOMER: Ipv4Addr = Ipv4Addr::new(10, 0, 3, 1);
    const ANYCAST: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
    const MASTER_KEY: [u8; 16] = [0x42; 16];
    /// A nonce of epoch 0.
    const NONCE: u64 = 0x0012_3456_789a_bcde;

    /// Keeps every frame it receives.
    #[derive(Default)]
    struct Sink(Vec<Vec<u8>>);

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
            self.0.push(frame.as_slice().to_vec());
            ctx.recycle(frame);
        }
    }

    /// A neutralizer between two sinks, routing `OUTSIDE`'s /24 to one
    /// and `CUSTOMER`'s /24 to the other.
    struct Border {
        sim: nn_netsim::Simulator,
        neut: nn_netsim::NodeId,
        outside: nn_netsim::NodeId,
        customer: nn_netsim::NodeId,
        /// The neutralizer's iface toward the outside sink.
        from_outside: IfaceId,
    }

    impl Border {
        fn new(config: NeutralizerConfig) -> Self {
            use nn_netsim::{LinkProfile, Simulator};
            let mut sim = Simulator::new(1);
            let outside = sim.add_node("outside", Box::new(Sink::default()));
            let neut = sim.add_node("neut", Box::new(NeutralizerNode::new(config, MASTER_KEY)));
            let customer = sim.add_node("customer", Box::new(Sink::default()));
            let link = LinkProfile::new(1_000_000_000, std::time::Duration::from_micros(10));
            let (_, from_outside) = sim.connect_sym(outside, neut, link.clone());
            let (to_customer, _) = sim.connect_sym(neut, customer, link);
            let mut routes = RouteTable::new();
            routes.add(Ipv4Cidr::new(OUTSIDE, 24), from_outside);
            routes.add(Ipv4Cidr::new(CUSTOMER, 24), to_customer);
            sim.node_mut::<NeutralizerNode>(neut)
                .unwrap()
                .set_routes(routes);
            Border {
                sim,
                neut,
                outside,
                customer,
                from_outside,
            }
        }

        /// Hands `frame` to the neutralizer `at` into the run. The box
        /// never reads the ingress iface, so every frame enters on the
        /// outside one.
        fn inject(&mut self, at: std::time::Duration, frame: Vec<u8>) {
            let at = nn_netsim::SimTime::ZERO + at;
            self.sim.inject(at, self.neut, self.from_outside, frame);
        }

        fn got(&self, sink: nn_netsim::NodeId) -> &[Vec<u8>] {
            &self.sim.node_ref::<Sink>(sink).unwrap().0
        }

        fn counter(&self, name: &str) -> u64 {
            self.sim.stats().counter(&format!("neutralizer.{name}"))
        }
    }

    fn repr(shim_type: ShimType, flags: u8, nonce: u64, addr_block: [u8; 16]) -> ShimRepr {
        ShimRepr {
            shim_type,
            flags,
            nonce,
            addr_block,
            stamp: None,
        }
    }

    /// `dst` sealed under the key of `(NONCE, OUTSIDE)` in epoch 0.
    fn sealed(dst: Ipv4Addr) -> [u8; 16] {
        let ks = MasterKey::new(MASTER_KEY).derive_ks(NONCE, OUTSIDE.to_u32());
        AddrSealer::new(&ks).seal(NONCE, dst.to_u32())
    }

    /// A key-setup frame from `OUTSIDE` carrying `key_wire`.
    fn setup(key_wire: &[u8]) -> Vec<u8> {
        let shim = repr(ShimType::KeySetup, 0, 0, ShimRepr::EMPTY_BLOCK);
        nn_packet::build_shim(OUTSIDE, ANYCAST, 0, &shim, key_wire).unwrap()
    }

    /// A public key `from_wire` accepts: a `len`-byte modulus with its top
    /// bit set, odd.
    fn modulus(len: usize) -> Vec<u8> {
        let mut wire = (len as u16).to_be_bytes().to_vec();
        wire.resize(2 + len, 0xff);
        assert!(RsaPublicKey::from_wire(&wire).is_ok(), "{len} bytes parse");
        wire
    }

    /// §3.4 at the rewrite itself: a sealed data frame forwarded to the
    /// customer and a return frame anonymized toward the outside
    /// initiator, both arriving marked DSCP EF and ECN CE, leave with
    /// both marks.
    #[test]
    fn rewrites_keep_dscp_and_ecn() {
        use nn_packet::{build_shim, dscp, ecn};

        let marked = |src: Ipv4Addr, shim: ShimRepr| {
            let mut frame = build_shim(src, ANYCAST, dscp::EXPEDITED, &shim, b"body").unwrap();
            Ipv4Packet::new_unchecked(&mut frame[..]).set_ecn(ecn::CE);
            frame
        };
        let data = repr(ShimType::Data, 0, NONCE, sealed(CUSTOMER));
        let ret = repr(
            ShimType::Return,
            0,
            NONCE,
            ShimRepr::plain_addr_block(OUTSIDE),
        );
        let config = NeutralizerConfig::new(ANYCAST, vec![Ipv4Cidr::new(CUSTOMER, 24)]);
        let mut border = Border::new(config);
        border.inject(Default::default(), marked(OUTSIDE, data));
        border.inject(Default::default(), marked(CUSTOMER, ret));
        border.sim.run(100);

        for (sink, rewrite, src, dst) in [
            (border.customer, "data", OUTSIDE, CUSTOMER),
            (border.outside, "return", ANYCAST, OUTSIDE),
        ] {
            let got = border.got(sink);
            assert_eq!(got.len(), 1, "the {rewrite} rewrite arrived");
            let ip = Ipv4Packet::new_checked(&got[0][..]).unwrap();
            assert_eq!(
                (ip.src_addr(), ip.dst_addr()),
                (src, dst),
                "{rewrite} rewritten"
            );
            assert_eq!(ip.dscp(), dscp::EXPEDITED, "{rewrite} rewrite keeps DSCP");
            assert_eq!(ip.ecn(), ecn::CE, "{rewrite} rewrite keeps ECN");
            assert!(ip.verify_checksum(), "{rewrite} checksum");
        }
    }

    /// A key setup is served only under a one-time key of at most
    /// [`MAX_ONETIME_KEY_BYTES`]: a real 512-bit key draws one `KeyReply`,
    /// while well-formed 65- and 1,024-byte moduli are counted and draw
    /// nothing.
    #[test]
    fn key_setup_refuses_keys_over_the_cap() {
        let real = nn_crypto::generate_keypair(&mut StdRng::seed_from_u64(5), 512);
        let mut border = Border::new(NeutralizerConfig::new(ANYCAST, vec![]));
        for key in [
            real.public.to_wire(),
            modulus(MAX_ONETIME_KEY_BYTES + 1),
            modulus(1024),
        ] {
            border.inject(Default::default(), setup(&key));
        }
        border.sim.run(100);

        assert_eq!(border.counter("setup_served"), 1);
        assert_eq!(border.counter("setup_key_too_long"), 2);
        let got: Vec<ShimType> = (border.got(border.outside).iter())
            .map(|f| parse_shim(f).unwrap().shim.shim_type)
            .collect();
        assert_eq!(
            got,
            [ShimType::KeyReply],
            "only the 512-bit key draws a reply"
        );
    }

    /// Conservation at the box: every frame of a fixed hostile mix lands
    /// in exactly one outcome counter, and the work stays at the paper's
    /// §4 price, with the memo on and off. A key setup costs one RSA
    /// encryption under a one-time key within [`MAX_ONETIME_KEY_BYTES`];
    /// a data or return frame costs at most one `Ks` derivation.
    #[test]
    fn every_frame_lands_in_one_counter_at_the_papers_price() {
        use nn_packet::{build_shim, build_udp, proto};
        use std::time::Duration;

        /// The counters a received frame ends in. The others count work:
        /// `data_stamped`, the memo's hits and misses, and rotations.
        const OUTCOMES: [&str; 21] = [
            "parse_error",
            "shim_parse_error",
            "transit",
            "shim_transit",
            "emit_parse_error",
            "emit_build_error",
            "no_route",
            "setup_parse_error",
            "setup_bad_pubkey",
            "setup_key_too_long",
            "setup_encrypt_fail",
            "setup_served",
            "data_parse_error",
            "data_expired_epoch",
            "data_unseal_fail",
            "data_not_customer",
            "data_forwarded",
            "return_parse_error",
            "return_not_customer",
            "return_expired_epoch",
            "return_anonymized",
        ];
        /// The outcomes of the frames that leave the box.
        const LEFT: [&str; 5] = [
            "setup_served",
            "transit",
            "shim_transit",
            "data_forwarded",
            "return_anonymized",
        ];
        // The box rotates its master key every millisecond. The first
        // frames arrive in epoch 0; the late ones in epoch 2, when epoch 0
        // is dead and epoch 3 not yet minted.
        const LIFETIME: Duration = Duration::from_millis(1);
        const EARLY: Duration = Duration::ZERO;
        const LATE: Duration = Duration::from_micros(2_500);
        const FUTURE: u64 = (3 << 56) | 0x77;
        const STRANGER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 7);
        /// Inside the /16 the box serves, but with no route.
        const UNROUTED: Ipv4Addr = Ipv4Addr::new(10, 0, 9, 1);

        let real = nn_crypto::generate_keypair(&mut StdRng::seed_from_u64(5), 512)
            .public
            .to_wire();
        let request = shim_flags::KEY_REQUEST;
        let data = |flags: u8, nonce: u64, block: [u8; 16]| {
            let shim = repr(ShimType::Data, flags, nonce, block);
            build_shim(OUTSIDE, ANYCAST, 0, &shim, &[0; 100]).unwrap()
        };
        // The largest frame IPv4 carries: its stamped rewrite cannot be built.
        let shim = repr(ShimType::Data, request, NONCE, sealed(CUSTOMER));
        let full = build_shim(OUTSIDE, ANYCAST, 0, &shim, &[0; 65_535 - 20 - 28]).unwrap();
        let ret = |src: Ipv4Addr, nonce: u64| {
            let shim = repr(
                ShimType::Return,
                0,
                nonce,
                ShimRepr::plain_addr_block(OUTSIDE),
            );
            build_shim(src, ANYCAST, 0, &shim, b"reply").unwrap()
        };
        let plain = |dst: Ipv4Addr| build_udp(OUTSIDE, dst, 0, 1, 2, b"plain").unwrap();
        let shim = repr(ShimType::Data, 0, NONCE, [1; 16]);
        let onward = build_shim(CUSTOMER, OUTSIDE, 0, &shim, b"").unwrap();
        // The IP header's total length stops ten bytes into the shim.
        let cut = |mut frame: Vec<u8>| {
            frame[2..4].copy_from_slice(&30u16.to_be_bytes());
            Ipv4Packet::new_unchecked(&mut frame[..]).fill_checksum();
            frame
        };
        let mut short_shim = plain(ANYCAST);
        short_shim[9] = proto::SHIM;
        Ipv4Packet::new_unchecked(&mut short_shim[..]).fill_checksum();

        // When each frame arrives, and the one counter it must land in.
        let mut mix: Vec<(Duration, &str, Vec<u8>)> = vec![
            (EARLY, "setup_served", setup(&real)),
            (EARLY, "setup_key_too_long", setup(&modulus(65))),
            (EARLY, "setup_key_too_long", setup(&modulus(1024))),
            (EARLY, "setup_bad_pubkey", setup(&real[..40])),
            // Too short to carry `nonce ‖ Ks`.
            (EARLY, "setup_encrypt_fail", setup(&modulus(16))),
            (EARLY, "setup_parse_error", cut(setup(&real))),
            (EARLY, "parse_error", vec![0x45; 10]),
            (EARLY, "shim_parse_error", short_shim),
            (EARLY, "transit", plain(CUSTOMER)),
            (EARLY, "no_route", plain(STRANGER)),
            (EARLY, "shim_transit", onward),
        ];
        let sessions = [
            (EARLY, "data_forwarded", data(0, NONCE, sealed(CUSTOMER))),
            (
                EARLY,
                "data_forwarded",
                data(request, NONCE, sealed(CUSTOMER)),
            ),
            (EARLY, "emit_build_error", full),
            (EARLY, "data_unseal_fail", data(0, NONCE, [0xa5; 16])),
            (EARLY, "data_not_customer", data(0, NONCE, sealed(STRANGER))),
            (EARLY, "no_route", data(0, NONCE, sealed(UNROUTED))),
            (
                EARLY,
                "data_parse_error",
                cut(data(0, NONCE, sealed(CUSTOMER))),
            ),
            (LATE, "data_expired_epoch", data(0, NONCE, sealed(CUSTOMER))),
            (LATE, "data_expired_epoch", data(0, FUTURE, [0xa5; 16])),
            (EARLY, "return_anonymized", ret(CUSTOMER, NONCE)),
            (EARLY, "return_not_customer", ret(STRANGER, NONCE)),
            (EARLY, "return_parse_error", cut(ret(CUSTOMER, NONCE))),
            (LATE, "return_expired_epoch", ret(CUSTOMER, NONCE)),
            (LATE, "return_expired_epoch", ret(CUSTOMER, FUTURE)),
        ];
        let handled = sessions.len() as u64;
        mix.extend(sessions);
        assert!(mix.iter().all(|(_, outcome, _)| OUTCOMES.contains(outcome)));

        for key_cache in [true, false] {
            let mut config = NeutralizerConfig::new(ANYCAST, vec![Ipv4Cidr::new(CUSTOMER, 16)]);
            config.key_lifetime = Some(LIFETIME);
            config.key_cache = key_cache;
            let mut border = Border::new(config);
            for (at, _, frame) in &mix {
                border.inject(*at, frame.clone());
            }
            border
                .sim
                .run_until(nn_netsim::SimTime::ZERO + LATE + LIFETIME / 4);
            assert_eq!(border.counter("key_rotated"), 2);

            let landed: u64 = OUTCOMES.iter().map(|name| border.counter(name)).sum();
            assert_eq!(landed, mix.len() as u64, "memo {key_cache}: frames in");
            for name in OUTCOMES {
                let expect = mix.iter().filter(|(_, outcome, _)| *outcome == name);
                assert_eq!(
                    border.counter(name),
                    expect.count() as u64,
                    "memo {key_cache}: {name}"
                );
            }
            // What left is what the sinks got; a stamp counts only when
            // its rewrite left.
            let left: u64 = LEFT.iter().map(|name| border.counter(name)).sum();
            let got = border.got(border.outside).len() + border.got(border.customer).len();
            assert_eq!(left, got as u64, "memo {key_cache}: frames out");
            assert_eq!(border.counter("data_stamped"), 1);

            // The price: one RSA encryption per served key, each key
            // within the cap, each answered by one reply.
            let replies = (border.got(border.outside).iter())
                .filter(|f| parse_shim(f).is_ok_and(|p| p.shim.shim_type == ShimType::KeyReply))
                .count();
            assert_eq!((border.counter("setup_served"), replies), (1, 1));
            // At most one `Ks` derivation per data or return frame, and
            // with the memo one per session.
            let misses = border.counter("key_cache_miss");
            assert!(misses <= handled, "memo {key_cache}: {misses} derivations");
            let derived = misses + border.counter("key_cache_hit");
            let expect = if key_cache { (1, 7) } else { (7, 7) };
            assert_eq!((misses, derived), expect, "memo {key_cache}");
        }
    }

    #[test]
    fn stateless_derivation_is_reproducible() {
        // Two "boxes" sharing KM derive identical keys — the anycast
        // fault-tolerance property of §3.2.
        let a = MasterKeyEpochs::new([9u8; 16]);
        let b = MasterKeyEpochs::new([9u8; 16]);
        let src = Ipv4Addr::new(66, 1, 2, 3);
        assert_eq!(a.derive(42, src), b.derive(42, src));
    }
}
