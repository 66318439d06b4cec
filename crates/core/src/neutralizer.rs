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
//! * key-setup packet → one short-RSA **encryption** (cheap, e = 3);
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
    /// cache and rotation counters stay internal.
    struct NeutralizerCounters {
        parse_error: Internal,
        shim_parse_error: Internal,
        transit: Reported,
        shim_transit: Internal,
        emit_parse_error: Internal,
        no_route: Internal,
        setup_parse_error: Internal,
        setup_bad_pubkey: Internal,
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

/// Sentinel index for the intrusive LRU list.
const NIL: usize = usize::MAX;

/// One occupied slot of the [`KeyTable`] cache.
struct CacheSlot {
    nonce: u64,
    src: u32,
    ks: [u8; 16],
    sealer: AddrSealer,
    prev: usize,
    next: usize,
}

/// Epoch-aware bounded LRU cache over [`MasterKeyEpochs::derive`].
///
/// The neutralizer is *logically* stateless — any box can derive any
/// flow's key from the packet alone, which is what the anycast
/// deployment rests on — but nothing stops a busy box from memoizing:
/// this table caches the derived `Ks` and the expanded AES schedule of
/// its address sealer per `(nonce, src)`, collapsing the per-packet
/// CMAC derivation + key schedule to a hash lookup. Correctness
/// properties:
///
/// * every hit re-validates the nonce's epoch byte against the live
///   epochs, and [`rotate`](Self::rotate) purges slots of the epoch
///   that just died, so the cache can never resurrect an expired epoch
///   (nor confuse a wrapped epoch byte with an ancient entry);
/// * eviction is strictly least-recently-used through an intrusive
///   list over slot indices — never dependent on hash-map iteration
///   order — so cached and uncached runs stay byte-identical;
/// * capacity 0 disables caching entirely (every packet derives fresh).
pub struct KeyTable {
    keys: MasterKeyEpochs,
    capacity: usize,
    map: std::collections::HashMap<(u64, u32), usize>,
    slots: Vec<Option<CacheSlot>>,
    free: Vec<usize>,
    /// Most-recently-used slot index, or `NIL`.
    head: usize,
    /// Least-recently-used slot index (eviction victim), or `NIL`.
    tail: usize,
    hits: u64,
    misses: u64,
    /// Holds the fresh sealer when the cache is disabled.
    scratch: Option<AddrSealer>,
}

impl KeyTable {
    /// Wraps the epoch machinery with a cache of at most `capacity`
    /// derived keys (0 disables caching).
    pub fn new(keys: MasterKeyEpochs, capacity: usize) -> Self {
        KeyTable {
            keys,
            capacity,
            map: std::collections::HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            scratch: None,
        }
    }

    /// The wrapped epoch machinery.
    pub fn epochs(&self) -> &MasterKeyEpochs {
        &self.keys
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (fresh derivations that were inserted).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache currently holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rotates the master key and purges slots of the epoch that just
    /// fell out of its grace window.
    pub fn rotate(&mut self, key: [u8; 16]) {
        self.keys.rotate(key);
        for idx in 0..self.slots.len() {
            let dead = self.slots[idx]
                .as_ref()
                .is_some_and(|s| !self.keys.epoch_is_live((s.nonce >> 56) as u8));
            if dead {
                self.remove(idx);
            }
        }
    }

    fn unlink(&mut self, prev: usize, next: usize) {
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].as_mut().expect("linked slot").next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].as_mut().expect("linked slot").prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let s = self.slots[idx].as_mut().expect("pushed slot");
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("old head").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn remove(&mut self, idx: usize) {
        let slot = self.slots[idx].take().expect("occupied slot");
        self.map.remove(&(slot.nonce, slot.src));
        self.unlink(slot.prev, slot.next);
        self.free.push(idx);
    }

    /// Finds or creates the cache slot for `(nonce, src)`; `None` when
    /// the nonce's epoch has expired. The bool is true on a hit.
    fn lookup(&mut self, nonce: u64, src: Ipv4Addr) -> Option<(usize, bool)> {
        let key = (nonce, src.to_u32());
        if let Some(&idx) = self.map.get(&key) {
            if self.keys.epoch_is_live((nonce >> 56) as u8) {
                self.hits += 1;
                if self.head != idx {
                    let (prev, next) = {
                        let s = self.slots[idx].as_ref().expect("mapped slot");
                        (s.prev, s.next)
                    };
                    self.unlink(prev, next);
                    self.push_front(idx);
                }
                return Some((idx, true));
            }
            // A dead epoch that survived in the map (possible only via
            // an epoch-byte forgery, since rotate() purges) — drop it.
            self.remove(idx);
            return None;
        }
        let ks = self.keys.derive(nonce, src)?;
        self.misses += 1;
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else if self.slots.len() < self.capacity {
            self.slots.push(None);
            self.slots.len() - 1
        } else {
            self.remove(self.tail);
            self.free.pop().expect("slot freed by eviction")
        };
        let sealer = AddrSealer::new(&ks);
        self.slots[idx] = Some(CacheSlot {
            nonce,
            src: src.to_u32(),
            ks,
            sealer,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
        Some((idx, false))
    }

    /// Derives `Ks` for (nonce, source) through the cache. Semantically
    /// identical to [`MasterKeyEpochs::derive`], only faster on repeats.
    pub fn derive(&mut self, nonce: u64, src: Ipv4Addr) -> Option<[u8; 16]> {
        if self.capacity == 0 {
            return self.keys.derive(nonce, src);
        }
        let (idx, _) = self.lookup(nonce, src)?;
        Some(self.slots[idx].as_ref().expect("looked-up slot").ks)
    }

    /// The address sealer keyed by `Ks(nonce, src)`, plus whether it
    /// came from the cache. `None` when the nonce's epoch has expired.
    pub fn sealer(&mut self, nonce: u64, src: Ipv4Addr) -> Option<(&AddrSealer, bool)> {
        if self.capacity == 0 {
            let ks = self.keys.derive(nonce, src)?;
            self.scratch = Some(AddrSealer::new(&ks));
            return Some((self.scratch.as_ref().expect("just set"), false));
        }
        let (idx, hit) = self.lookup(nonce, src)?;
        Some((
            &self.slots[idx].as_ref().expect("looked-up slot").sealer,
            hit,
        ))
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
    /// Capacity of the per-flow derived-key cache (entries); 0 derives
    /// fresh on every packet, recovering the fully stateless data path.
    pub key_cache: usize,
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
            key_cache: 1024,
            stats_name: "neutralizer".to_string(),
        }
    }
}

/// The neutralizer node: border router + neutralization functions.
pub struct NeutralizerNode {
    config: NeutralizerConfig,
    keys: KeyTable,
    routes: RouteTable,
    ids: NeutralizerCounters,
}

impl NeutralizerNode {
    /// Builds a neutralizer with the given master key material.
    pub fn new(config: NeutralizerConfig, master_key: [u8; 16]) -> Self {
        let keys = KeyTable::new(MasterKeyEpochs::new(master_key), config.key_cache);
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

    /// The derived-key cache (tests and harnesses).
    pub fn key_table(&self) -> &KeyTable {
        &self.keys
    }

    fn in_domain(&self, addr: Ipv4Addr) -> bool {
        self.config.domain.iter().any(|p| p.contains(addr))
    }

    fn route_out(&mut self, ctx: &mut Context, frame: FrameBuf) {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else {
            ctx.stats.bump(self.ids.emit_parse_error);
            ctx.recycle(frame);
            return;
        };
        match self.routes.lookup(ip.dst_addr()) {
            Some(iface) => ctx.send(iface, frame),
            None => {
                ctx.stats.bump(self.ids.no_route);
                ctx.recycle(frame);
            }
        }
    }

    /// Builds a shim frame into a pooled buffer and routes it out,
    /// optionally restoring an ECN codepoint onto the rewrite. The
    /// rewrite path reuses recycled buffers instead of rebuilding frames
    /// from scratch — the §4 "commodity hardware" cost story depends on
    /// the per-packet path staying off the allocator. Returns false when
    /// the frame could not be built.
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
            return false;
        };
        if let Some(codepoint) = ecn {
            preserve_ecn(codepoint, &mut out);
        }
        self.route_out(ctx, out);
        true
    }

    /// §3.2 key setup: one cheap RSA encryption.
    fn handle_key_setup(&mut self, ctx: &mut Context, frame: &[u8]) {
        let Ok(parsed) = parse_shim(frame) else {
            ctx.stats.bump(self.ids.setup_parse_error);
            return;
        };
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
        ctx.stats.bump(self.ids.setup_served);
        let shim = ShimRepr {
            shim_type: ShimType::KeyReply,
            flags: 0,
            nonce: 0,
            addr_block: ShimRepr::EMPTY_BLOCK,
            stamp: None,
        };
        self.emit_shim(
            ctx,
            self.config.anycast,
            parsed.ip.src,
            parsed.ip.dscp,
            &shim,
            &ct,
            None,
        );
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
            ctx.stats.bump(self.ids.data_stamped);
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
        // return path shares the forward path's cache entry.
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
            ctx.stats.bump(self.ids.transit);
            self.route_out(ctx, frame);
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
                ctx.stats.bump(self.ids.shim_transit);
                self.route_out(ctx, frame);
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
    fn key_table_honors_epochs_with_grace() {
        // The cached path must replay derive_honors_epochs_with_grace
        // exactly: grace-epoch hits stay valid, dead epochs vanish.
        let mut rng = StdRng::seed_from_u64(2);
        let mut table = KeyTable::new(MasterKeyEpochs::new([1u8; 16]), 8);
        let reference = MasterKeyEpochs::new([1u8; 16]);
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let old_nonce = table.epochs().mint_nonce(&mut rng);
        let old_key = table.derive(old_nonce, src).unwrap();
        assert_eq!(reference.derive(old_nonce, src), Some(old_key));
        assert_eq!((table.hits(), table.misses()), (0, 1));

        table.rotate([2u8; 16]);
        // Grace: the cached previous-epoch entry survives the rotation
        // and serves a hit with the same value.
        assert_eq!(table.derive(old_nonce, src), Some(old_key));
        assert_eq!((table.hits(), table.misses()), (1, 1));
        let new_nonce = table.epochs().mint_nonce(&mut rng);
        assert!(table.derive(new_nonce, src).is_some());

        table.rotate([3u8; 16]);
        // Two rotations later the original epoch is dead: the entry was
        // purged and derivation refuses.
        assert_eq!(table.derive(old_nonce, src), None);
        assert_eq!(table.len(), 1, "only the epoch-1 entry remains");

        // 254 more rotations wrap the epoch byte back to the old
        // nonce's value; the purge must prevent a stale hit.
        for round in 0..254u16 {
            table.rotate([round as u8; 16]);
        }
        assert_eq!(table.epochs().current_epoch(), (old_nonce >> 56) as u8);
        assert!(table.is_empty());
        // A wrapped-epoch derive is a fresh miss under the new key, not
        // a replay of the cached original.
        let rewrapped = table.derive(old_nonce, src).unwrap();
        assert_ne!(rewrapped, old_key);
    }

    #[test]
    fn key_table_evicts_least_recently_used() {
        let mut table = KeyTable::new(MasterKeyEpochs::new([7u8; 16]), 2);
        let src = Ipv4Addr::new(10, 0, 0, 9);
        table.derive(1, src);
        table.derive(2, src);
        table.derive(1, src); // touch 1 → LRU victim is 2
        assert_eq!((table.hits(), table.misses()), (1, 2));
        table.derive(3, src); // evicts 2
        assert_eq!(table.len(), 2);
        table.derive(1, src); // still cached
        assert_eq!(table.hits(), 2);
        table.derive(2, src); // was evicted → miss again
        assert_eq!((table.hits(), table.misses()), (2, 4));
    }

    #[test]
    fn key_table_zero_capacity_disables_caching() {
        let mut table = KeyTable::new(MasterKeyEpochs::new([4u8; 16]), 0);
        let reference = MasterKeyEpochs::new([4u8; 16]);
        let src = Ipv4Addr::new(10, 2, 0, 1);
        for _ in 0..3 {
            assert_eq!(table.derive(5, src), reference.derive(5, src));
        }
        assert!(table.is_empty());
        assert_eq!((table.hits(), table.misses()), (0, 0));
        let (_, hit) = table.sealer(5, src).unwrap();
        assert!(!hit);
    }

    #[test]
    fn key_table_sealer_matches_fresh_sealer() {
        // A cache-hit sealer must produce byte-identical output to one
        // built fresh from the stateless derivation.
        let mut table = KeyTable::new(MasterKeyEpochs::new([8u8; 16]), 4);
        let reference = MasterKeyEpochs::new([8u8; 16]);
        let src = Ipv4Addr::new(88, 1, 2, 3);
        let nonce = 0x0042_4242;
        let addr = 0x0a00_00ffu32;
        let fresh = AddrSealer::new(&reference.derive(nonce, src).unwrap());
        let expect = fresh.seal(nonce, addr);
        for round in 0..2 {
            let (sealer, hit) = table.sealer(nonce, src).unwrap();
            assert_eq!(hit, round == 1);
            assert_eq!(sealer.seal(nonce, addr), expect);
            assert_eq!(sealer.open(nonce, &expect).unwrap(), addr);
        }
    }

    #[test]
    fn derive_rejects_future_epochs() {
        let keys = MasterKeyEpochs::new([1u8; 16]);
        let forged = (7u64 << 56) | 12345;
        assert_eq!(keys.derive(forged, Ipv4Addr::new(1, 2, 3, 4)), None);
    }

    /// §3.4 at the rewrite itself: a sealed data frame forwarded to the
    /// customer and a return frame anonymized toward the outside
    /// initiator, both arriving marked DSCP EF and ECN CE, leave with
    /// both marks.
    #[test]
    fn rewrites_keep_dscp_and_ecn() {
        use nn_netsim::{LinkProfile, Simulator};
        use nn_packet::{build_shim, dscp, ecn};
        use std::time::Duration;

        const OUTSIDE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 5);
        const CUSTOMER: Ipv4Addr = Ipv4Addr::new(10, 0, 3, 1);
        const ANYCAST: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
        const MASTER_KEY: [u8; 16] = [0x42; 16];
        const NONCE: u64 = 0x0012_3456_789a_bcde;

        /// Sends its frames at start and keeps every frame it receives.
        struct Edge {
            send: Vec<Vec<u8>>,
            got: Vec<Vec<u8>>,
        }
        impl Node for Edge {
            fn on_start(&mut self, ctx: &mut Context) {
                for frame in self.send.drain(..) {
                    ctx.send(0, frame);
                }
            }
            fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
                self.got.push(frame.as_slice().to_vec());
                ctx.recycle(frame);
            }
        }

        let marked = |src: Ipv4Addr, shim: ShimRepr| {
            let mut frame = build_shim(src, ANYCAST, dscp::EXPEDITED, &shim, b"body").unwrap();
            Ipv4Packet::new_unchecked(&mut frame[..]).set_ecn(ecn::CE);
            vec![frame]
        };
        let ks = MasterKey::new(MASTER_KEY).derive_ks(NONCE, OUTSIDE.to_u32());
        let data = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce: NONCE,
            addr_block: AddrSealer::new(&ks).seal(NONCE, CUSTOMER.to_u32()),
            stamp: None,
        };
        let ret = ShimRepr {
            shim_type: ShimType::Return,
            flags: 0,
            nonce: NONCE,
            addr_block: ShimRepr::plain_addr_block(OUTSIDE),
            stamp: None,
        };

        let mut sim = Simulator::new(1);
        let outside = sim.add_node(
            "outside",
            Box::new(Edge {
                send: marked(OUTSIDE, data),
                got: Vec::new(),
            }),
        );
        let config = NeutralizerConfig::new(ANYCAST, vec![Ipv4Cidr::new(CUSTOMER, 24)]);
        let neut = sim.add_node("neut", Box::new(NeutralizerNode::new(config, MASTER_KEY)));
        let customer = sim.add_node(
            "customer",
            Box::new(Edge {
                send: marked(CUSTOMER, ret),
                got: Vec::new(),
            }),
        );
        let link = LinkProfile::new(1_000_000_000, Duration::from_micros(10));
        let (_, to_outside) = sim.connect_sym(outside, neut, link.clone());
        let (to_customer, _) = sim.connect_sym(neut, customer, link);
        let mut routes = RouteTable::new();
        routes.add(Ipv4Cidr::new(OUTSIDE, 24), to_outside);
        routes.add(Ipv4Cidr::new(CUSTOMER, 24), to_customer);
        sim.node_mut::<NeutralizerNode>(neut)
            .unwrap()
            .set_routes(routes);
        sim.run(100);

        for (node, rewrite, src, dst) in [
            (customer, "data", OUTSIDE, CUSTOMER),
            (outside, "return", ANYCAST, OUTSIDE),
        ] {
            let got = &sim.node_ref::<Edge>(node).unwrap().got;
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
