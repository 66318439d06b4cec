//! Host stacks: the endpoints of every cell.
//!
//! The same application workload (an [`AppSource`]) runs unchanged over
//! two transports, so A/B experiments compare *network treatment* only:
//!
//! * [`PlainSourceNode`] / [`PlainServerNode`] — ordinary UDP. The
//!   payload is in the clear, so a discriminatory ISP's DPI can classify
//!   and degrade it (§1 of the paper).
//! * [`NeutralizedSourceNode`] / [`NeutralizedServerNode`] — the paper's
//!   §3.2 pipeline: one-time-RSA key setup against the neutralizer,
//!   sealed destination addresses in the shim header, end-to-end
//!   encrypted payloads, and anonymized return traffic.
//!
//! Every application payload travels inside an *app frame* that carries
//! the flow name and the send timestamp, so the receiving side can do
//! per-flow goodput/delay accounting in [`nn_netsim::stats`] without any
//! out-of-band channel.

use nn_core::app::AppSource;
use nn_core::wire::{put_envelope, put_record, InnerPayload, TransportMsg};
use nn_crypto::e2e;
use nn_crypto::sealed::AddrSealer;
use nn_crypto::{Cmac, E2eSession, RsaKeypair};
use nn_netsim::{Context, FlowId, FrameBuf, IfaceId, Node, SimTime, Stats};
use nn_packet::{
    build_shim_with, build_udp_into, ecn, parse_shim_mut, parse_udp, Ipv4Addr, Ipv4Packet,
    ShimRepr, ShimType,
};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Timer token for application wake-ups.
const TOKEN_APP_WAKE: u64 = 0xA1;
/// Timer token for key-setup retransmission.
const TOKEN_SETUP_RETRY: u64 = 0xA2;
/// Timer token for the multihome liveness check (§3.5).
const TOKEN_LIVENESS: u64 = 0xA3;

nn_netsim::counter_set! {
    /// Both source stacks' counters, `source.<field>`. Reports carry
    /// sessions established, provider failovers and logical keygens;
    /// the failure counters stay internal.
    struct SourceCounters {
        established: Reported,
        failovers: Reported,
        keygens: Reported,
        setup_retry: Internal,
        build_fail: Internal,
        envelope_fail: Internal,
        key_reply_bad: Internal,
        return_bad: Internal,
    }
}

nn_netsim::counter_set! {
    /// The neutralized destination's counters, `server.<field>`; none
    /// are reported.
    struct ServerCounters {
        envelope_bad: Internal,
        record_no_session: Internal,
        record_auth_fail: Internal,
        transport_bad: Internal,
    }
}

/// How long a neutralized source waits for a `KeyReply` before
/// retransmitting its `KeySetup` (covers one lost packet per RTO).
const SETUP_RETRY_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// How often a multihomed source checks that the provider it is using
/// still answers. Only armed when the `NEUT` record listed more than one
/// neutralizer, so single-homed cells schedule no extra timers.
const LIVENESS_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);

/// A liveness window is only meaningful when the source actually offered
/// traffic: at least this many data packets with zero authenticated
/// replies counts as a silent provider.
const LIVENESS_MIN_TX: u64 = 2;

/// How many consecutive `KeySetup` retransmissions against one provider
/// the source tolerates before trying the next address in the list.
const SETUP_RETRIES_PER_PROVIDER: u32 = 2;

/// UDP port both ends of the plain transport use (an RTP-like workload).
pub const APP_PORT: u16 = 16384;

/// Marks an outgoing frame ECT(0): both host stacks model ECN-capable
/// transports, so an ECN-enabled AQM on the path can CE-mark their
/// packets instead of dropping them. The DSCP is untouched (§3.4).
fn stamp_ect(frame: &mut FrameBuf) {
    Ipv4Packet::new_unchecked(frame.as_mut_slice()).set_ecn(ecn::ECT0);
}

/// Builds `IP(UDP(payload))` into a pooled buffer, ECT(0)-stamped.
/// `None` (plus a counter) when the payload cannot fit a frame.
fn pooled_udp(
    ctx: &mut Context,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    payload: &[u8],
) -> Option<FrameBuf> {
    let mut pkt =
        ctx.alloc_built(|buf| build_udp_into(buf, src, dst, dscp, APP_PORT, APP_PORT, payload))?;
    stamp_ect(&mut pkt);
    Some(pkt)
}

/// Builds `IP(SHIM(...))` into a pooled buffer, DSCP 0 and ECT(0)-stamped,
/// with `write` appending the payload in place: records are sealed
/// straight into the frame.
fn pooled_shim(
    ctx: &mut Context,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    shim: &ShimRepr,
    write: impl FnOnce(&mut Vec<u8>),
) -> Option<FrameBuf> {
    let mut pkt = ctx.alloc_built(|buf| build_shim_with(buf, src, dst, 0, shim, write))?;
    stamp_ect(&mut pkt);
    Some(pkt)
}

/// Whether a delivered frame carries an ECN CE mark (receiver-side ECN
/// accounting; the transports here have no congestion response, so the
/// mark is measured rather than reacted to).
fn is_ce(frame: &[u8]) -> bool {
    Ipv4Packet::new_checked(frame).is_ok_and(|ip| ip.ecn() == ecn::CE)
}

/// Derives the record-channel key from the envelope session key.
///
/// Domain separation: envelopes are sealed under the raw session key
/// while records run under this derived key, so an on-path adversary
/// cannot re-wrap a captured envelope body as an authenticated record
/// (both formats are AES-GCM with the IV `nonce ‖ 0³²`). Replay of an
/// *unmodified* packet is deliberately out of scope — the
/// discriminatory-ISP model here degrades traffic rather than injecting
/// it, and the goodput accounting would need receiver-side nonce windows
/// to de-duplicate.
fn record_channel_key(session_key: &[u8; 16]) -> [u8; 16] {
    Cmac::new(session_key).tag(b"nn-record-channel")
}

/// Appends an app frame's header for in-band flow accounting; the
/// application data follows it.
///
/// Layout: `flow_len(1) ‖ flow ‖ sent_ns(8) ‖ data`.
fn put_app_frame_header(out: &mut Vec<u8>, flow: &str, now: SimTime) {
    let flow_len = u8::try_from(flow.len()).expect("flow names are one length byte");
    out.push(flow_len);
    out.extend_from_slice(flow.as_bytes());
    out.extend_from_slice(&now.as_nanos().to_be_bytes());
}

/// Decodes an app frame; `None` on malformed input.
pub fn decode_app_frame(frame: &[u8]) -> Option<(&str, SimTime, &[u8])> {
    let (&flow_len, rest) = frame.split_first()?;
    let flow_len = flow_len as usize;
    if rest.len() < flow_len + 8 {
        return None;
    }
    let flow = core::str::from_utf8(&rest[..flow_len]).ok()?;
    let sent = SimTime(u64::from_be_bytes(
        rest[flow_len..flow_len + 8].try_into().unwrap(),
    ));
    Some((flow, sent, &rest[flow_len + 8..]))
}

/// Drives an [`AppSource`]'s schedule through timer wake-ups; shared by
/// both source stacks.
struct AppDriver {
    app: Box<dyn AppSource>,
    name: String,
    /// Registered from `on_start`.
    flow: FlowId,
}

impl AppDriver {
    fn new(flow: impl Into<String>, app: Box<dyn AppSource>) -> Self {
        AppDriver {
            app,
            name: flow.into(),
            flow: FlowId::default(),
        }
    }

    /// Registers the flow; the host calls it from `on_start`.
    fn start(&mut self, stats: &mut Stats) {
        self.flow = stats.flow_id(&self.name, 1);
    }

    /// Writes the app's next due payload into `frame` (cleared first) as
    /// an app frame and counts it sent. Once nothing more is due it arms
    /// the next wake-up instead and returns false.
    fn next(&mut self, ctx: &mut Context, frame: &mut Vec<u8>) -> bool {
        frame.clear();
        put_app_frame_header(frame, &self.name, ctx.now);
        let header = frame.len();
        if self.app.poll(ctx.now, frame) {
            ctx.stats
                .flow_tx(self.flow, 1, (frame.len() - header) as u64);
            return true;
        }
        if let Some(next) = self.app.next_wake(ctx.now) {
            if next > ctx.now {
                ctx.set_timer(next - ctx.now, TOKEN_APP_WAKE);
            }
        }
        false
    }
}

/// The flow a receiving host last accounted to. App frames name their
/// flow, and a host sees one flow at a time, so the name is compared with
/// the last flow's before the registry is searched.
#[derive(Debug, Default)]
struct LastFlow(Option<FlowId>);

impl LastFlow {
    fn resolve(&mut self, stats: &mut Stats, name: &str) -> FlowId {
        match self.0 {
            Some(id) if stats.flow_name(id) == name => id,
            _ => *self.0.insert(stats.flow_id(name, 1)),
        }
    }
}

/// A source host speaking plain UDP — the baseline the discriminatory
/// ISP can classify.
pub struct PlainSourceNode {
    addr: Ipv4Addr,
    dst: Ipv4Addr,
    driver: AppDriver,
    /// The app frame being sent, reused for every send.
    frame: Vec<u8>,
    ids: SourceCounters,
    /// Echo replies received back from the server.
    pub replies: u64,
}

impl PlainSourceNode {
    /// Builds a plain source sending `app`'s traffic to `dst`, at DSCP 0.
    pub fn new(
        addr: Ipv4Addr,
        dst: Ipv4Addr,
        flow: impl Into<String>,
        app: Box<dyn AppSource>,
    ) -> Self {
        PlainSourceNode {
            addr,
            dst,
            driver: AppDriver::new(flow, app),
            frame: Vec::new(),
            ids: SourceCounters::default(),
            replies: 0,
        }
    }

    fn flush(&mut self, ctx: &mut Context) {
        while self.driver.next(ctx, &mut self.frame) {
            match pooled_udp(ctx, self.addr, self.dst, 0, &self.frame) {
                Some(pkt) => ctx.send(0, pkt),
                // flow_tx already counted this packet: record that it
                // never left, so 0% delivery is not misread as loss.
                None => ctx.stats.bump(self.ids.build_fail),
            }
        }
    }
}

impl Node for PlainSourceNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = SourceCounters::register(ctx.stats, "source");
        self.driver.start(ctx.stats);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if token == TOKEN_APP_WAKE {
            self.flush(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        let reply = parse_udp(&frame).is_ok_and(|p| decode_app_frame(p.payload).is_some());
        ctx.recycle(frame);
        if reply {
            self.replies += 1;
        }
    }
}

/// A plain UDP server: accounts every delivery per flow and echoes the
/// app frame back to the sender.
pub struct PlainServerNode {
    addr: Ipv4Addr,
    flow: LastFlow,
    /// App frames delivered.
    pub rx_frames: u64,
}

impl PlainServerNode {
    /// Builds a server at `addr`.
    pub fn new(addr: Ipv4Addr) -> Self {
        PlainServerNode {
            addr,
            flow: LastFlow::default(),
            rx_frames: 0,
        }
    }
}

impl Node for PlainServerNode {
    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        let reply = {
            let Ok(parsed) = parse_udp(&frame) else {
                ctx.recycle(frame);
                return;
            };
            let Some((flow, sent, data)) = decode_app_frame(parsed.payload) else {
                ctx.recycle(frame);
                return;
            };
            self.rx_frames += 1;
            let flow = self.flow.resolve(ctx.stats, flow);
            ctx.stats
                .flow_rx(flow, 0, 1, data.len() as u64, sent, ctx.now);
            if is_ce(&frame) {
                ctx.stats.flow_ce(flow, 1);
            }
            pooled_udp(
                ctx,
                self.addr,
                parsed.ip.src,
                parsed.ip.dscp,
                parsed.payload,
            )
        };
        ctx.recycle(frame);
        if let Some(pkt) = reply {
            ctx.send(0, pkt);
        }
    }
}

/// Bootstrap information a source needs before neutralized communication
/// (§3.1): in deployment this triple comes out of the destination's DNS
/// `NEUT` record, fetched over an encrypted channel; no cell models that
/// lookup, so [`crate::cell::run_cell`] hands the source the triple at
/// start.
#[derive(Debug, Clone)]
pub struct Bootstrap {
    /// The destination's real address (stays hidden inside sealed blocks).
    pub dest: Ipv4Addr,
    /// Every neutralizer service address the `NEUT` record listed, in
    /// record order. A multihomed destination lists one per provider
    /// (§3.5); the source starts with the first and, when it gives up on
    /// one, tries the next.
    pub neutralizers: Vec<Ipv4Addr>,
    /// The destination's end-to-end RSA public key.
    pub dest_pubkey: nn_crypto::RsaPublicKey,
}

/// Established session state on the neutralized source.
struct EstablishedSession {
    nonce: u64,
    /// Destination sealed under `Ks` and bound to the nonce; reusable on
    /// every packet because the neutralizer is stateless.
    sealed_dst: [u8; 16],
    /// Sealer for verifying anonymized return blocks.
    sealer: AddrSealer,
    /// End-to-end record channel (initiator direction).
    session: E2eSession,
    /// True once an authenticated reply proves the destination holds the
    /// session key. Until then every packet carries a full envelope, so a
    /// lost first packet cannot deadlock the record channel.
    confirmed: bool,
    e2e_key: [u8; 16],
}

/// A source host speaking the neutralized protocol of §3.2.
pub struct NeutralizedSourceNode {
    addr: Ipv4Addr,
    bootstrap: Bootstrap,
    driver: AppDriver,
    /// The app frame being sent, reused for every send.
    frame: Vec<u8>,
    /// The one-time keypair of §3.2, minted before the cell starts.
    keypair: Arc<RsaKeypair>,
    established: Option<EstablishedSession>,
    /// App frames generated before key setup completed, with their
    /// original send timestamps already encoded.
    pending: Vec<Vec<u8>>,
    /// Index in `bootstrap.neutralizers` of the provider in use (§3.5).
    current: usize,
    /// Data packets sent since the last liveness check.
    liveness_tx: u64,
    /// Authenticated replies received since the last liveness check.
    liveness_rx: u64,
    /// Whether any reply ever came back through `current`. A silent
    /// window only indicts a provider that was previously alive — before
    /// the first reply the window may simply be shorter than the RTT
    /// (a dead-from-start provider is caught by the setup-retry path).
    path_alive: bool,
    /// Consecutive `KeySetup` retransmissions against `current`.
    setup_retries: u32,
    ids: SourceCounters,
    /// Echo replies received and authenticated.
    pub replies: u64,
    /// Replies whose sealed return block opened to the real destination.
    pub verified_return_blocks: u64,
}

impl NeutralizedSourceNode {
    /// Builds a neutralized source from bootstrap info and the one-time
    /// keypair it offers the neutralizer in its single key setup. It
    /// sends at DSCP 0.
    pub fn new(
        addr: Ipv4Addr,
        bootstrap: Bootstrap,
        keypair: Arc<RsaKeypair>,
        flow: impl Into<String>,
        app: Box<dyn AppSource>,
    ) -> Self {
        assert!(
            !bootstrap.neutralizers.is_empty(),
            "a NEUT record lists at least one neutralizer"
        );
        NeutralizedSourceNode {
            addr,
            bootstrap,
            driver: AppDriver::new(flow, app),
            frame: Vec::new(),
            keypair,
            established: None,
            pending: Vec::new(),
            current: 0,
            liveness_tx: 0,
            liveness_rx: 0,
            path_alive: false,
            setup_retries: 0,
            ids: SourceCounters::default(),
            replies: 0,
            verified_return_blocks: 0,
        }
    }

    /// True when the `NEUT` record listed a fallback provider, i.e. when
    /// the failover machinery (liveness timer, setup-retry failover) is
    /// active.
    fn multihomed(&self) -> bool {
        self.bootstrap.neutralizers.len() > 1
    }

    /// The service address of the provider in use.
    fn provider(&self) -> Ipv4Addr {
        self.bootstrap.neutralizers[self.current]
    }

    /// Gives up on the provider in use and moves to the next address in
    /// the bootstrap list, wrapping round: §3.5's "trial-and-error to
    /// find a path that's working". The neutralizers are stateless (§3:
    /// `Ks` is re-derivable from the master key on any provider), so an
    /// established session keeps working across the switch — only the
    /// service address the packets travel to changes.
    fn fail_over(&mut self, ctx: &mut Context) {
        self.current = (self.current + 1) % self.bootstrap.neutralizers.len();
        ctx.stats.bump(self.ids.failovers);
        // The replacement starts unproven: its first silent window must
        // not immediately indict it too.
        self.path_alive = false;
        self.setup_retries = 0;
    }

    /// Sends one app frame as a neutralized data packet: on a confirmed
    /// channel a record sealed straight into the pooled frame.
    fn send_data(&mut self, ctx: &mut Context, app_frame: &[u8]) {
        let via = self.provider();
        let est = self.established.as_mut().expect("established");
        let inner = InnerPayload::data(app_frame);
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce: est.nonce,
            addr_block: est.sealed_dst,
            stamp: None,
        };
        let pkt = if est.confirmed {
            pooled_shim(ctx, self.addr, via, &shim, |buf| {
                put_record(buf, &mut est.session, &inner)
            })
        } else {
            // Until an authenticated reply confirms the destination holds
            // the session key, every packet is a public-key envelope
            // transporting it (§3.1's end-to-end black box): losing any
            // one of them loses that packet only, never the channel.
            let mut plain = Vec::new();
            inner.emit(&mut plain);
            let Ok(env) =
                e2e::seal_keyed(ctx.rng, &self.bootstrap.dest_pubkey, &plain, &est.e2e_key)
            else {
                ctx.stats.bump(self.ids.envelope_fail);
                return;
            };
            pooled_shim(ctx, self.addr, via, &shim, |buf| put_envelope(buf, &env))
        };
        match pkt {
            Some(pkt) => {
                ctx.send(0, pkt);
                self.liveness_tx += 1;
            }
            // flow_tx already counted this packet: record that it never
            // left, so 0% delivery is not misread as loss.
            None => ctx.stats.bump(self.ids.build_fail),
        }
    }

    fn flush(&mut self, ctx: &mut Context) {
        let mut frame = std::mem::take(&mut self.frame);
        while self.driver.next(ctx, &mut frame) {
            if self.established.is_some() {
                self.send_data(ctx, &frame);
            } else {
                self.pending.push(frame.clone());
            }
        }
        self.frame = frame;
    }

    /// (Re)sends the `KeySetup` packet carrying the one-time public key.
    fn send_key_setup(&mut self, ctx: &mut Context) {
        let shim = ShimRepr {
            shim_type: ShimType::KeySetup,
            flags: 0,
            nonce: 0,
            addr_block: ShimRepr::EMPTY_BLOCK,
            stamp: None,
        };
        let wire = self.keypair.public.to_wire();
        if let Some(pkt) = pooled_shim(ctx, self.addr, self.provider(), &shim, |buf| {
            buf.extend_from_slice(&wire)
        }) {
            ctx.send(0, pkt);
        }
        ctx.set_timer(SETUP_RETRY_INTERVAL, TOKEN_SETUP_RETRY);
    }

    fn handle_key_reply(&mut self, ctx: &mut Context, payload: &[u8]) {
        let Ok(plain) = self.keypair.private.decrypt(payload) else {
            ctx.stats.bump(self.ids.key_reply_bad);
            return;
        };
        if plain.len() != 24 || self.established.is_some() {
            return;
        }
        let nonce = u64::from_be_bytes(plain[..8].try_into().unwrap());
        let ks: [u8; 16] = plain[8..24].try_into().unwrap();
        let sealer = AddrSealer::new(&ks);
        let e2e_key: [u8; 16] = ctx.rng.gen();
        self.established = Some(EstablishedSession {
            nonce,
            sealed_dst: sealer.seal(nonce, self.bootstrap.dest.to_u32()),
            sealer,
            session: E2eSession::new(&record_channel_key(&e2e_key), true),
            confirmed: false,
            e2e_key,
        });
        ctx.stats.bump(self.ids.established);
        self.setup_retries = 0;
        let pending = std::mem::take(&mut self.pending);
        for frame in pending {
            self.send_data(ctx, &frame);
        }
    }

    /// Opens a return packet's record where it lies in the frame.
    fn handle_return(&mut self, ctx: &mut Context, shim: &ShimRepr, payload: &mut [u8]) {
        let Some(est) = &self.established else { return };
        if shim.nonce != est.nonce {
            return;
        }
        // The neutralizer sealed the true responder address into the
        // return block; opening it proves which customer answered.
        if est.sealer.open(shim.nonce, &shim.addr_block) == Ok(self.bootstrap.dest.to_u32()) {
            self.verified_return_blocks += 1;
        }
        let opened = match TransportMsg::parse(payload) {
            Ok(TransportMsg::Record(rec)) => est.session.open_in_place(rec).ok(),
            _ => None,
        };
        let Some(plain) = opened else {
            ctx.stats.bump(self.ids.return_bad);
            return;
        };
        // An authenticated reply proves the destination has the session
        // key: switch from envelopes to the cheaper record channel.
        if let Some(est) = self.established.as_mut() {
            est.confirmed = true;
        }
        let Ok(inner) = InnerPayload::parse(plain) else {
            return;
        };
        // An authenticated reply is proof of provider liveness.
        self.liveness_rx += 1;
        self.path_alive = true;
        if decode_app_frame(inner.app).is_some() {
            self.replies += 1;
        }
    }
}

impl Node for NeutralizedSourceNode {
    fn on_start(&mut self, ctx: &mut Context) {
        // §3.2 step 1: offer the one-time RSA key and ask the neutralizer
        // for a session key bound to our address. The key was minted
        // before the cell started, but the source still makes the single
        // `ctx.rng` draw that forks a keygen sub-RNG: the host RNG stream,
        // and with it every golden, includes that draw. It also counts
        // the one logical keygen.
        let _ = nn_crypto::keygen_rng(ctx.rng);
        self.ids = SourceCounters::register(ctx.stats, "source");
        self.driver.start(ctx.stats);
        ctx.stats.bump(self.ids.keygens);
        self.send_key_setup(ctx);
        // Failover machinery only runs for multihomed destinations, so
        // single-homed cells schedule no extra timers (byte-identical
        // event streams with or without this feature compiled in).
        if self.multihomed() {
            ctx.set_timer(LIVENESS_INTERVAL, TOKEN_LIVENESS);
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        match token {
            TOKEN_APP_WAKE => self.flush(ctx),
            // A lost KeySetup/KeyReply must not stall the session for the
            // whole run: retransmit until a reply establishes it. With a
            // fallback provider, a few consecutive silent retries are
            // §3.5's "trial-and-error": try the next address instead.
            TOKEN_SETUP_RETRY if self.established.is_none() => {
                ctx.stats.bump(self.ids.setup_retry);
                self.setup_retries += 1;
                if self.multihomed() && self.setup_retries >= SETUP_RETRIES_PER_PROVIDER {
                    self.fail_over(ctx);
                }
                self.send_key_setup(ctx);
            }
            TOKEN_LIVENESS => {
                // A window with real offered traffic and zero
                // authenticated replies means the provider went dark
                // under us: report it and steer to the fallback.
                if self.path_alive && self.liveness_tx >= LIVENESS_MIN_TX && self.liveness_rx == 0 {
                    self.fail_over(ctx);
                }
                self.liveness_tx = 0;
                self.liveness_rx = 0;
                ctx.set_timer(LIVENESS_INTERVAL, TOKEN_LIVENESS);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, mut frame: FrameBuf) {
        if let Ok(parsed) = parse_shim_mut(&mut frame) {
            match parsed.shim.shim_type {
                ShimType::KeyReply => self.handle_key_reply(ctx, parsed.payload),
                ShimType::Return => self.handle_return(ctx, &parsed.shim, parsed.payload),
                _ => {}
            }
        }
        ctx.recycle(frame);
    }
}

/// Per-session state on the neutralized destination.
struct ServerSession {
    /// The session key the first envelope carried; the source seals
    /// every repeat envelope under it.
    envelope_key: [u8; 16],
    /// Record channel (responder direction).
    session: E2eSession,
    /// The neutralizer that forwarded this session's latest data packet
    /// (stamped into the shim's address block, §3.5): return traffic goes
    /// back through the provider that is demonstrably alive, so replies
    /// follow the initiator's failover without any extra signalling.
    return_via: Ipv4Addr,
}

/// The neutralized destination: a customer inside the neutral domain
/// holding the end-to-end private key published in its `NEUT` record.
/// It echoes every app frame back as a sealed record.
pub struct NeutralizedServerNode {
    addr: Ipv4Addr,
    /// Default entry point for return traffic (the primary anycast
    /// address), used until a data packet stamps a serving provider.
    neutralizer: Ipv4Addr,
    keypair: Arc<RsaKeypair>,
    /// Record channels per (initiator, nonce): responder direction.
    sessions: HashMap<(u32, u64), ServerSession>,
    flow: LastFlow,
    ids: ServerCounters,
    /// App frames delivered.
    pub rx_frames: u64,
}

impl NeutralizedServerNode {
    /// Builds the destination stack.
    pub fn new(addr: Ipv4Addr, neutralizer: Ipv4Addr, keypair: Arc<RsaKeypair>) -> Self {
        NeutralizedServerNode {
            addr,
            neutralizer,
            keypair,
            sessions: HashMap::new(),
            flow: LastFlow::default(),
            ids: ServerCounters::default(),
            rx_frames: 0,
        }
    }

    /// Echoes an app frame back as a record sealed straight into the
    /// pooled return frame.
    fn echo_reply(&mut self, ctx: &mut Context, initiator: Ipv4Addr, nonce: u64, app_frame: &[u8]) {
        let entry = self
            .sessions
            .get_mut(&(initiator.to_u32(), nonce))
            .expect("session exists for delivered frame");
        // §3.2 return path: the pre-anonymization packet carries the
        // initiator in plaintext; the neutralizer seals our address and
        // hides us behind the anycast.
        let shim = ShimRepr {
            shim_type: ShimType::Return,
            flags: 0,
            nonce,
            addr_block: ShimRepr::plain_addr_block(initiator),
            stamp: None,
        };
        if let Some(pkt) = pooled_shim(ctx, self.addr, entry.return_via, &shim, |buf| {
            put_record(buf, &mut entry.session, &InnerPayload::data(app_frame))
        }) {
            ctx.send(0, pkt);
        }
    }
}

impl Node for NeutralizedServerNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = ServerCounters::register(ctx.stats, "server");
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, mut frame: FrameBuf) {
        self.receive(ctx, &mut frame);
        ctx.recycle(frame);
    }
}

impl NeutralizedServerNode {
    /// Opens a data packet's record where it lies in `frame`, accounts
    /// the app frame and echoes it.
    fn receive(&mut self, ctx: &mut Context, frame: &mut FrameBuf) {
        let ce = is_ce(frame);
        let Ok(parsed) = parse_shim_mut(frame) else {
            return;
        };
        if parsed.shim.shim_type != ShimType::Data {
            return;
        }
        let initiator = parsed.ip.src;
        let nonce = parsed.shim.nonce;
        // The forwarding neutralizer stamped its own service address into
        // the data shim's address block; an all-zero block (older or
        // hand-built frames) falls back to the configured primary.
        let stamped = ShimRepr::addr_from_plain_block(&parsed.shim.addr_block);
        let return_via = if stamped.to_u32() == 0 {
            self.neutralizer
        } else {
            stamped
        };
        let opened_envelope: Vec<u8>;
        let plain: &[u8] = match TransportMsg::parse(parsed.payload) {
            Ok(TransportMsg::Envelope(env)) => {
                let id = (initiator.to_u32(), nonce);
                // The source repeats envelopes until a reply confirms the
                // channel, all under the key this session already holds:
                // a tag that verifies under it opens the repeat without
                // the RSA unwrap. Anything else pays for the CRT decrypt.
                let held = self
                    .sessions
                    .get(&id)
                    .and_then(|s| e2e::open_with_key(&s.envelope_key, &env).ok());
                opened_envelope = match held {
                    Some(plain) => plain,
                    None => {
                        let Ok((plain, session_key)) = e2e::open(&self.keypair.private, &env)
                        else {
                            ctx.stats.bump(self.ids.envelope_bad);
                            return;
                        };
                        // Keep an existing session so the responder's
                        // record nonces never restart (GCM nonce reuse).
                        self.sessions.entry(id).or_insert_with(|| ServerSession {
                            envelope_key: session_key,
                            session: E2eSession::new(&record_channel_key(&session_key), false),
                            return_via,
                        });
                        plain
                    }
                };
                // Replies chase the provider that forwarded the latest
                // authenticated packet — the §3.5 failover contract.
                self.sessions
                    .get_mut(&id)
                    .expect("an opened envelope has a session")
                    .return_via = return_via;
                &opened_envelope
            }
            Ok(TransportMsg::Record(rec)) => {
                let Some(entry) = self.sessions.get_mut(&(initiator.to_u32(), nonce)) else {
                    ctx.stats.bump(self.ids.record_no_session);
                    return;
                };
                let Ok(plain) = entry.session.open_in_place(rec) else {
                    ctx.stats.bump(self.ids.record_auth_fail);
                    return;
                };
                // Replies chase the provider that forwarded the latest
                // authenticated packet — the §3.5 failover contract.
                entry.return_via = return_via;
                plain
            }
            Err(_) => {
                ctx.stats.bump(self.ids.transport_bad);
                return;
            }
        };
        let Ok(inner) = InnerPayload::parse(plain) else {
            return;
        };
        let Some((flow, sent, data)) = decode_app_frame(inner.app) else {
            return;
        };
        self.rx_frames += 1;
        let flow = self.flow.resolve(ctx.stats, flow);
        ctx.stats
            .flow_rx(flow, 0, 1, data.len() as u64, sent, ctx.now);
        if ce {
            ctx.stats.flow_ce(flow, 1);
        }
        self.echo_reply(ctx, initiator, nonce, inner.app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_core::app::NullApp;
    use nn_netsim::{LinkProfile, Simulator, SinkNode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// A lost KeySetup/KeyReply must not stall the source forever: with
    /// a peer that never answers, the setup packet is retransmitted on a
    /// timer until a reply arrives.
    #[test]
    fn key_setup_is_retransmitted_until_established() {
        let mut sim = Simulator::new(9);
        let src = sim.add_node("src", Box::new(source_listing(vec![NEUT])));
        // The peer swallows everything: no KeyReply ever comes back.
        let sink = sim.add_node("blackhole", Box::new(SinkNode::new()));
        sim.connect_sym(
            src,
            sink,
            LinkProfile::new(10_000_000, Duration::from_millis(2)),
        );
        sim.run_until(nn_netsim::SimTime::from_secs(1));
        let rx = sim.node_ref::<SinkNode>(sink).unwrap().rx_frames;
        assert!(rx >= 3, "initial setup plus retries expected, got {rx}");
        assert!(sim.stats().counter("source.setup_retry") >= 2);
    }

    /// Records the destination address of every frame it receives.
    #[derive(Default)]
    struct DstLog(Vec<Ipv4Addr>);

    impl Node for DstLog {
        fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
            self.0
                .push(Ipv4Packet::new_checked(&frame[..]).unwrap().dst_addr());
            ctx.recycle(frame);
        }
    }

    /// A neutralized source for the test destination listing `providers`.
    fn source_listing(providers: Vec<Ipv4Addr>) -> NeutralizedSourceNode {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = nn_crypto::generate_keypair(&mut rng, 320);
        let onetime = Arc::new(nn_crypto::generate_keypair(&mut rng, 320));
        NeutralizedSourceNode::new(
            INITIATOR,
            Bootstrap {
                dest: DEST,
                neutralizers: providers,
                dest_pubkey: kp.public,
            },
            onetime,
            "flow",
            Box::new(NullApp),
        )
    }

    /// §3.5's trial-and-error: when both listed providers swallow every
    /// `KeySetup`, the source steps through the list in order, wrapping
    /// round, with `SETUP_RETRIES_PER_PROVIDER` setups to each provider
    /// and one failover per switch.
    #[test]
    fn silent_providers_are_tried_in_list_order() {
        let providers = vec![NEUT, Ipv4Addr::new(198, 18, 1, 1)];
        let mut sim = Simulator::new(9);
        let src = sim.add_node("src", Box::new(source_listing(providers.clone())));
        let log = sim.add_node("blackhole", Box::<DstLog>::default());
        sim.connect_sym(
            src,
            log,
            LinkProfile::new(10_000_000, Duration::from_millis(2)),
        );
        // Setups leave every 250 ms; the one at 1.75 s is the eighth.
        sim.run_until(SimTime::from_millis(1_900));
        let dsts = &sim.node_ref::<DstLog>(log).unwrap().0;
        assert_eq!(dsts.len(), 8, "{dsts:?}");
        let per = SETUP_RETRIES_PER_PROVIDER as usize;
        for (i, dst) in dsts.iter().enumerate() {
            assert_eq!(*dst, providers[(i / per) % 2], "setup {i}: {dsts:?}");
        }
        let switches = dsts.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        assert_eq!(switches, 3);
        assert_eq!(sim.stats().counter("source.failovers"), switches);
    }

    #[test]
    #[should_panic(expected = "a NEUT record lists at least one neutralizer")]
    fn an_empty_provider_list_is_rejected() {
        let _ = source_listing(Vec::new());
    }

    const INITIATOR: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
    const DEST: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);
    const NEUT: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
    /// Session nonce shared by every frame, so all envelopes belong to
    /// one server session.
    const NONCE: u64 = 0x5e55;

    /// Sends its prebuilt frames back to back at start.
    struct Replay(Vec<Vec<u8>>);

    impl Node for Replay {
        fn on_start(&mut self, ctx: &mut Context) {
            for frame in std::mem::take(&mut self.0) {
                ctx.send(0, frame);
            }
        }

        fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
            ctx.recycle(frame);
        }
    }

    /// A data packet of the test session on `nonce` carrying `payload`.
    fn data_frame(nonce: u64, payload: &[u8]) -> Vec<u8> {
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce,
            addr_block: ShimRepr::plain_addr_block(NEUT),
            stamp: None,
        };
        nn_packet::build_shim(INITIATOR, DEST, 0, &shim, payload).expect("frame builds")
    }

    /// A data packet of the test session carrying `env`.
    fn envelope_frame(env: &e2e::E2eEnvelope) -> Vec<u8> {
        let mut payload = Vec::new();
        put_envelope(&mut payload, env);
        data_frame(NONCE, &payload)
    }

    /// The app frame every test packet carries.
    fn app_frame(flow: &str, sent: SimTime, data: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        put_app_frame_header(&mut frame, flow, sent);
        frame.extend_from_slice(data);
        frame
    }

    /// Seals one app frame to `keypair` under `session_key`.
    fn envelope(rng: &mut StdRng, keypair: &RsaKeypair, session_key: [u8; 16]) -> e2e::E2eEnvelope {
        let mut inner = Vec::new();
        InnerPayload::data(&app_frame("voip", SimTime::ZERO, b"rtp")).emit(&mut inner);
        e2e::seal_keyed(rng, &keypair.public, &inner, &session_key).expect("envelope seals")
    }

    /// Runs a destination holding `keypair` over `frames`, delivered in
    /// order, and returns the simulation and the destination's id.
    fn serve_frames(keypair: RsaKeypair, frames: Vec<Vec<u8>>) -> (Simulator, nn_netsim::NodeId) {
        let mut sim = Simulator::new(3);
        let src = sim.add_node("src", Box::new(Replay(frames)));
        let server = NeutralizedServerNode::new(DEST, NEUT, Arc::new(keypair));
        let dst = sim.add_node("dst", Box::new(server));
        sim.connect_sym(
            src,
            dst,
            LinkProfile::new(10_000_000, Duration::from_millis(1)),
        );
        sim.run_until(SimTime::from_secs(1));
        (sim, dst)
    }

    /// Runs a destination holding `keypair` over `envelopes`, delivered
    /// in order; returns the frames it delivered and its
    /// `server.envelope_bad` count.
    fn serve(keypair: RsaKeypair, envelopes: &[e2e::E2eEnvelope]) -> (u64, u64) {
        let (sim, dst) = serve_frames(keypair, envelopes.iter().map(envelope_frame).collect());
        let rx = sim
            .node_ref::<NeutralizedServerNode>(dst)
            .unwrap()
            .rx_frames;
        (rx, sim.stats().counter("server.envelope_bad"))
    }

    /// The envelope fast path's one behaviour change: once a session
    /// holds its key, a repeat envelope whose tag verifies under that
    /// key is accepted even though its RSA-wrapped key is garbage. The
    /// same envelope with no session held is `server.envelope_bad`.
    #[test]
    fn repeat_envelope_opens_under_the_held_session_key() {
        let mut rng = StdRng::seed_from_u64(21);
        let kp = nn_crypto::generate_keypair(&mut rng, 320);
        let key = [0x11; 16];
        let first = envelope(&mut rng, &kp, key);
        let mut repeat = envelope(&mut rng, &kp, key);
        repeat.wrapped_key = vec![0xa5; repeat.wrapped_key.len()];
        assert!(e2e::open(&kp.private, &repeat).is_err(), "unwrap fails");

        assert_eq!(serve(kp.clone(), &[first, repeat.clone()]), (2, 0));
        assert_eq!(serve(kp, &[repeat]), (0, 1));
    }

    /// An envelope whose tag fails under the held key still goes
    /// through RSA: accepted when the unwrapped key opens it, counted
    /// `server.envelope_bad` when the unwrap fails too.
    #[test]
    fn envelope_failing_the_held_key_falls_back_to_rsa() {
        let mut rng = StdRng::seed_from_u64(22);
        let kp = nn_crypto::generate_keypair(&mut rng, 320);
        let first = envelope(&mut rng, &kp, [0x11; 16]);
        let rewrapped = envelope(&mut rng, &kp, [0x22; 16]);
        let mut garbage = envelope(&mut rng, &kp, [0x22; 16]);
        garbage.wrapped_key = vec![0xa5; garbage.wrapped_key.len()];
        assert_eq!(serve(kp, &[first, rewrapped, garbage]), (2, 1));
    }

    /// Hostile records, opened in place, sort into the destination's
    /// three error counters by where they break, and none is delivered.
    /// A cut anywhere, or a flipped tag byte or length field, does not
    /// frame (`transport_bad`); any other flipped bit fails the tag
    /// (`record_auth_fail`); a record on a session nonce the destination
    /// never saw an envelope for is `record_no_session`.
    #[test]
    fn hostile_records_sort_into_the_destination_counters() {
        let mut rng = StdRng::seed_from_u64(23);
        let kp = nn_crypto::generate_keypair(&mut rng, 320);
        let key = [0x11; 16];
        let mut session = E2eSession::new(&record_channel_key(&key), true);
        let mut record = Vec::new();
        let app = app_frame("voip", SimTime::ZERO, b"rtp");
        put_record(&mut record, &mut session, &InnerPayload::data(&app));

        let mut frames = vec![envelope_frame(&envelope(&mut rng, &kp, key))];
        frames.extend((0..record.len()).map(|cut| data_frame(NONCE, &record[..cut])));
        let (mut unframed, mut forged) = (record.len() as u64, 0);
        for bit in 0..record.len() * 8 {
            let mut bytes = record.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            frames.push(data_frame(NONCE, &bytes));
            // Tag byte 0, nonce 1..9, length field 9..13.
            if bit / 8 == 0 || (9..13).contains(&(bit / 8)) {
                unframed += 1;
            } else {
                forged += 1;
            }
        }
        frames.push(data_frame(NONCE + 1, &record));
        frames.push(data_frame(NONCE, &record));

        let (sim, dst) = serve_frames(kp, frames);
        let counter = |name| sim.stats().counter(name);
        assert_eq!(counter("server.transport_bad"), unframed);
        assert_eq!(counter("server.record_auth_fail"), forged);
        assert_eq!(counter("server.record_no_session"), 1);
        assert_eq!(counter("server.envelope_bad"), 0);
        // Only the envelope and the intact record were delivered.
        let server = sim.node_ref::<NeutralizedServerNode>(dst).unwrap();
        assert_eq!(server.rx_frames, 2);
        assert_eq!(sim.stats().flow("voip").unwrap().rx_packets, 2);
    }

    #[test]
    fn app_frame_roundtrip() {
        let frame = app_frame("voip", SimTime::from_millis(250), b"rtp payload");
        let (flow, sent, data) = decode_app_frame(&frame).unwrap();
        assert_eq!(flow, "voip");
        assert_eq!(sent, SimTime::from_millis(250));
        assert_eq!(data, b"rtp payload");
    }

    #[test]
    fn app_frame_malformed_rejected() {
        assert!(decode_app_frame(&[]).is_none());
        assert!(decode_app_frame(&[10, b'a', b'b']).is_none());
        // Non-UTF8 flow name.
        let mut frame = app_frame("ab", SimTime::ZERO, b"");
        frame[1] = 0xff;
        assert!(decode_app_frame(&frame).is_none());
    }
}
