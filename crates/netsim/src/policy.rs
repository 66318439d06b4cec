//! Discrimination policies — the adversary model made executable.
//!
//! §2 of the paper defines the discriminatory ISP: it "may eavesdrop on
//! all traffic, perform traffic analysis, delay or drop packets within its
//! network". §3.6 enumerates what such an ISP can still see after
//! neutralization: customer/neutralizer addresses, the fact that traffic
//! is encrypted, and key-setup packets. Every one of those capabilities is
//! a [`MatchExpr`] here, and every §1 degradation tactic (slow down
//! Vonage, prioritize our own VoIP) is an [`Action`]. Experiments F1/E4
//! run these classifiers with and without the neutralizer between them and
//! the victim.

use crate::queue::TokenBucket;
use nn_packet::{parse_shim, parse_udp, proto, Ipv4Cidr, Ipv4Packet, ShimType};
use std::time::Duration;

/// Packet classifier over raw frames.
#[derive(Debug, Clone)]
pub enum MatchExpr {
    /// Always matches.
    True,
    /// All sub-expressions match.
    All(Vec<MatchExpr>),
    /// Any sub-expression matches.
    Any(Vec<MatchExpr>),
    /// Negation.
    Not(Box<MatchExpr>),
    /// IP destination in prefix.
    DstPrefix(Ipv4Cidr),
    /// IP source in prefix.
    SrcPrefix(Ipv4Cidr),
    /// IP protocol equals.
    Protocol(u8),
    /// UDP destination port equals (false for non-UDP).
    DstPort(u16),
    /// UDP source port equals (false for non-UDP).
    SrcPort(u16),
    /// Deep packet inspection: UDP payload contains the byte pattern.
    /// This is the "discriminate on content" capability the paper's
    /// end-to-end encryption defeats.
    PayloadContains(Vec<u8>),
    /// Traffic-analysis heuristic: payload entropy close to the maximum
    /// for its length (§3.6's "discriminate against encrypted traffic").
    LooksEncrypted {
        /// Ignore payloads shorter than this (entropy is meaningless).
        min_len: usize,
    },
    /// The frame carries the neutralizer shim protocol.
    IsShim,
    /// The frame is a shim key-setup packet (§3.6's third discrimination).
    IsKeySetup,
    /// DSCP is at least the given value.
    DscpAtLeast(u8),
    /// Total frame length at most `max` bytes (timing/size analysis).
    LenAtMost(usize),
}

impl MatchExpr {
    /// Evaluates the classifier on a raw frame. Unparseable frames match
    /// nothing except `True`/`Not`.
    pub fn matches(&self, frame: &[u8]) -> bool {
        match self {
            MatchExpr::True => true,
            MatchExpr::All(subs) => subs.iter().all(|m| m.matches(frame)),
            MatchExpr::Any(subs) => subs.iter().any(|m| m.matches(frame)),
            MatchExpr::Not(m) => !m.matches(frame),
            MatchExpr::DstPrefix(p) => ip_view(frame).is_some_and(|ip| p.contains(ip.dst_addr())),
            MatchExpr::SrcPrefix(p) => ip_view(frame).is_some_and(|ip| p.contains(ip.src_addr())),
            MatchExpr::Protocol(proto) => ip_view(frame).is_some_and(|ip| ip.protocol() == *proto),
            MatchExpr::DstPort(port) => parse_udp(frame).is_ok_and(|u| u.dst_port == *port),
            MatchExpr::SrcPort(port) => parse_udp(frame).is_ok_and(|u| u.src_port == *port),
            MatchExpr::PayloadContains(pattern) => {
                parse_udp(frame).is_ok_and(|u| contains(u.payload, pattern))
            }
            MatchExpr::LooksEncrypted { min_len } => match ip_view(frame) {
                Some(ip) => {
                    let payload = ip.payload();
                    payload.len() >= *min_len && looks_encrypted(payload)
                }
                None => false,
            },
            MatchExpr::IsShim => ip_view(frame).is_some_and(|ip| ip.protocol() == proto::SHIM),
            MatchExpr::IsKeySetup => {
                parse_shim(frame).is_ok_and(|s| s.shim.shim_type == ShimType::KeySetup)
            }
            MatchExpr::DscpAtLeast(d) => ip_view(frame).is_some_and(|ip| ip.dscp() >= *d),
            MatchExpr::LenAtMost(max) => frame.len() <= *max,
        }
    }
}

fn ip_view(frame: &[u8]) -> Option<Ipv4Packet<&[u8]>> {
    Ipv4Packet::new_checked(frame).ok()
}

/// Substring search: scans for the needle's first byte and compares the
/// rest only where it occurs, so a payload without that byte costs one
/// pass and no compare call.
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let Some(last_start) = haystack.len().checked_sub(needle.len()) else {
        return false;
    };
    haystack[..=last_start]
        .iter()
        .enumerate()
        .any(|(i, &b)| b == first && haystack[i + 1..i + needle.len()] == *rest)
}

/// Shannon-entropy heuristic: payload entropy above 85% of the maximum
/// possible for its length. English text and protocol plaintext sit far
/// below this; AES output sits essentially at it.
fn looks_encrypted(payload: &[u8]) -> bool {
    let mut hist = [0u32; 256];
    for &b in payload {
        hist[b as usize] += 1;
    }
    let n = payload.len() as f64;
    let mut h = 0.0f64;
    for &c in hist.iter() {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    let h_max = (payload.len() as f64).log2().min(8.0);
    h_max > 0.0 && h / h_max > 0.85
}

/// What a matched rule does to a packet.
#[derive(Debug, Clone)]
pub enum Action {
    /// Forward untouched (used to whitelist above broader rules).
    Allow,
    /// Drop with the given probability (1.0 = always).
    Drop {
        /// Per-packet drop probability.
        prob: f64,
    },
    /// Add queueing delay before forwarding.
    Delay {
        /// Extra one-way delay.
        extra: Duration,
    },
    /// Add a uniformly random delay in `[min, max]` before forwarding —
    /// deliberate jitter injection, the degradation that hurts
    /// isochronous traffic (VoIP) most. The randomness comes from the
    /// simulation RNG draw, so runs stay deterministic under a seed.
    Jitter {
        /// Smallest injected delay.
        min: Duration,
        /// Largest injected delay.
        max: Duration,
    },
    /// Police to a rate; non-conforming packets drop.
    Throttle {
        /// Policing rate, bits/second.
        rate_bps: u64,
        /// Bucket depth, bytes.
        burst_bytes: usize,
    },
    /// Rewrite the DSCP (de-prioritize or prioritize a class).
    SetDscp {
        /// New DSCP value.
        dscp: u8,
    },
}

/// A named classifier/action pair.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Name used in statistics.
    pub name: String,
    /// When the rule applies.
    pub matcher: MatchExpr,
    /// What it does.
    pub action: Action,
}

impl Rule {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, matcher: MatchExpr, action: Action) -> Self {
        Rule {
            name: name.into(),
            matcher,
            action,
        }
    }
}

/// The per-router policy engine: first matching rule wins.
#[derive(Debug, Default)]
pub struct PolicyEngine {
    rules: Vec<Rule>,
    buckets: Vec<Option<TokenBucket>>,
    hits: Vec<u64>,
}

/// A rule's position in its [`PolicyEngine`], in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleId(pub usize);

/// Decision returned to the forwarding path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward unchanged.
    Forward,
    /// Forward after rewriting DSCP.
    ForwardDscp(u8),
    /// Drop; the rule is reported for statistics (its name via
    /// [`PolicyEngine::rule_name`]).
    Drop(RuleId),
    /// Hold for extra delay, then forward.
    Delay(Duration),
}

impl PolicyEngine {
    /// An engine with no rules (everything forwards).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule (evaluated in insertion order).
    pub fn push(&mut self, rule: Rule) -> &mut Self {
        self.buckets.push(match &rule.action {
            Action::Throttle {
                rate_bps,
                burst_bytes,
            } => Some(TokenBucket::new(*rate_bps, *burst_bytes)),
            _ => None,
        });
        self.hits.push(0);
        self.rules.push(rule);
        self
    }

    /// Builder-style rule addition.
    pub fn with(mut self, rule: Rule) -> Self {
        self.push(rule);
        self
    }

    /// Classifies a frame. `draw` is a uniform [0,1) sample from the
    /// simulation RNG (kept outside so the engine stays deterministic).
    pub fn evaluate(&mut self, now_ns: u64, frame: &[u8], draw: f64) -> Verdict {
        for i in 0..self.rules.len() {
            if !self.rules[i].matcher.matches(frame) {
                continue;
            }
            self.hits[i] += 1;
            return match &self.rules[i].action {
                Action::Allow => Verdict::Forward,
                Action::Drop { prob } => {
                    if draw < *prob {
                        Verdict::Drop(RuleId(i))
                    } else {
                        Verdict::Forward
                    }
                }
                Action::Delay { extra } => Verdict::Delay(*extra),
                Action::Jitter { min, max } => {
                    let span = max.saturating_sub(*min);
                    Verdict::Delay(*min + span.mul_f64(draw.clamp(0.0, 1.0)))
                }
                Action::Throttle { .. } => {
                    let bucket = self.buckets[i].as_mut().expect("throttle has bucket");
                    if bucket.conforms(now_ns, frame.len()) {
                        Verdict::Forward
                    } else {
                        Verdict::Drop(RuleId(i))
                    }
                }
                Action::SetDscp { dscp } => Verdict::ForwardDscp(*dscp),
            };
        }
        Verdict::Forward
    }

    /// Name of the rule behind a [`Verdict::Drop`].
    ///
    /// # Panics
    ///
    /// When `rule` did not come from this engine.
    pub fn rule_name(&self, rule: RuleId) -> &str {
        &self.rules[rule.0].name
    }

    /// Times the named rule matched.
    pub fn hits(&self, name: &str) -> u64 {
        self.rules
            .iter()
            .zip(&self.hits)
            .filter(|(r, _)| r.name == name)
            .map(|(_, &h)| h)
            .sum()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_packet::{build_shim, build_udp, Ipv4Addr, ShimRepr};
    use proptest::prelude::*;

    /// The window search the first-byte scan replaced: the reference.
    fn naive_contains(haystack: &[u8], needle: &[u8]) -> bool {
        needle.is_empty() || haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn contains_edge_cases() {
        for (haystack, needle, expect) in [
            (&b""[..], &b""[..], true),
            (b"abc", b"", true),
            (b"", b"a", false),
            (b"ab", b"abc", false),
            (b"abc", b"abc", true),
            (b"abcdef", b"ab", true),
            (b"abcdef", b"ef", true),
            (b"abcdef", b"f", true),
            (b"aaab", b"aab", true),
            (b"abababc", b"ababc", true),
            (b"ababab", b"ababc", false),
        ] {
            assert_eq!(
                contains(haystack, needle),
                expect,
                "{haystack:?} / {needle:?}"
            );
            assert_eq!(naive_contains(haystack, needle), expect);
        }
    }

    proptest! {
        /// Over a two-letter alphabet, so matches, near misses and
        /// overlapping prefixes are common, the scan agrees with the
        /// window search for every needle length, the empty one and ones
        /// longer than the haystack included.
        #[test]
        fn prop_contains_matches_window_search(
            haystack in proptest::collection::vec(0u8..2, 0..24),
            needle in proptest::collection::vec(0u8..2, 0..6),
        ) {
            prop_assert_eq!(contains(&haystack, &needle), naive_contains(&haystack, &needle));
            // A needle cut from the haystack is always found, at either end.
            for cut in 0..=haystack.len() {
                prop_assert!(contains(&haystack, &haystack[..cut]));
                prop_assert!(contains(&haystack, &haystack[cut..]));
            }
        }
    }

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);
    const DST: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 9);

    fn udp_frame(payload: &[u8]) -> Vec<u8> {
        build_udp(SRC, DST, 0, 5060, 16384, payload).unwrap()
    }

    fn shim_frame(shim_type: ShimType) -> Vec<u8> {
        let shim = ShimRepr {
            shim_type,
            flags: 0,
            nonce: 1,
            addr_block: [0u8; 16],
            stamp: None,
        };
        build_shim(SRC, DST, 0, &shim, &[0u8; 16]).unwrap()
    }

    #[test]
    fn prefix_and_port_matchers() {
        let f = udp_frame(b"hello");
        assert!(MatchExpr::DstPrefix(Ipv4Cidr::new(Ipv4Addr::new(172, 16, 0, 0), 16)).matches(&f));
        assert!(!MatchExpr::DstPrefix(Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)).matches(&f));
        assert!(MatchExpr::SrcPrefix(Ipv4Cidr::new(SRC, 32)).matches(&f));
        assert!(MatchExpr::DstPort(16384).matches(&f));
        assert!(MatchExpr::SrcPort(5060).matches(&f));
        assert!(!MatchExpr::DstPort(80).matches(&f));
        assert!(MatchExpr::Protocol(proto::UDP).matches(&f));
    }

    #[test]
    fn combinators() {
        let f = udp_frame(b"x");
        let yes = MatchExpr::DstPort(16384);
        let no = MatchExpr::DstPort(80);
        assert!(MatchExpr::All(vec![yes.clone(), MatchExpr::True]).matches(&f));
        assert!(!MatchExpr::All(vec![yes.clone(), no.clone()]).matches(&f));
        assert!(MatchExpr::Any(vec![no.clone(), yes.clone()]).matches(&f));
        assert!(MatchExpr::Not(Box::new(no)).matches(&f));
        assert!(!MatchExpr::Not(Box::new(yes)).matches(&f));
    }

    #[test]
    fn dpi_payload_match() {
        let f = udp_frame(b"GET /watch?v=vonage-call HTTP/1.1");
        assert!(MatchExpr::PayloadContains(b"vonage".to_vec()).matches(&f));
        assert!(!MatchExpr::PayloadContains(b"skype".to_vec()).matches(&f));
        assert!(MatchExpr::PayloadContains(vec![]).matches(&f));
    }

    #[test]
    fn entropy_heuristic_separates_text_from_ciphertext() {
        let text = udp_frame(b"this is a perfectly ordinary plaintext sip invite message body with headers and words");
        assert!(!MatchExpr::LooksEncrypted { min_len: 32 }.matches(&text));
        // Pseudo-ciphertext: every byte value distinct-ish.
        let ct: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(197) >> 3) as u8 ^ (i as u8).rotate_left(3))
            .collect();
        let enc = udp_frame(&ct);
        assert!(MatchExpr::LooksEncrypted { min_len: 32 }.matches(&enc));
        // Short payloads never match.
        let short = udp_frame(&[0xff, 0x01, 0x7e]);
        assert!(!MatchExpr::LooksEncrypted { min_len: 32 }.matches(&short));
    }

    #[test]
    fn shim_and_keysetup_detection() {
        let data = shim_frame(ShimType::Data);
        let setup = shim_frame(ShimType::KeySetup);
        let plain = udp_frame(b"x");
        assert!(MatchExpr::IsShim.matches(&data));
        assert!(MatchExpr::IsShim.matches(&setup));
        assert!(!MatchExpr::IsShim.matches(&plain));
        assert!(MatchExpr::IsKeySetup.matches(&setup));
        assert!(!MatchExpr::IsKeySetup.matches(&data));
    }

    #[test]
    fn garbage_frames_match_nothing() {
        let junk = vec![0u8; 40];
        assert!(!MatchExpr::DstPort(0).matches(&junk));
        assert!(!MatchExpr::IsShim.matches(&junk));
        assert!(!MatchExpr::LooksEncrypted { min_len: 1 }.matches(&junk));
        assert!(MatchExpr::True.matches(&junk));
    }

    #[test]
    fn first_match_wins_and_counts() {
        let mut pe = PolicyEngine::new();
        pe.push(Rule::new(
            "allow-dns",
            MatchExpr::DstPort(53),
            Action::Allow,
        ));
        pe.push(Rule::new(
            "drop-all-udp",
            MatchExpr::Protocol(proto::UDP),
            Action::Drop { prob: 1.0 },
        ));
        let dns = build_udp(SRC, DST, 0, 1000, 53, b"q").unwrap();
        let other = udp_frame(b"v");
        assert_eq!(pe.evaluate(0, &dns, 0.5), Verdict::Forward);
        assert_eq!(pe.evaluate(0, &other, 0.5), Verdict::Drop(RuleId(1)));
        assert_eq!(pe.rule_name(RuleId(1)), "drop-all-udp");
        assert_eq!(pe.hits("allow-dns"), 1);
        assert_eq!(pe.hits("drop-all-udp"), 1);
        assert_eq!(pe.hits("nonexistent"), 0);
    }

    #[test]
    fn probabilistic_drop_uses_draw() {
        let mut pe = PolicyEngine::new().with(Rule::new(
            "halve",
            MatchExpr::True,
            Action::Drop { prob: 0.5 },
        ));
        let f = udp_frame(b"x");
        assert!(matches!(pe.evaluate(0, &f, 0.4), Verdict::Drop(_)));
        assert_eq!(pe.evaluate(0, &f, 0.6), Verdict::Forward);
    }

    #[test]
    fn throttle_polices() {
        let mut pe = PolicyEngine::new().with(Rule::new(
            "slow-victim",
            MatchExpr::True,
            Action::Throttle {
                rate_bps: 8_000,
                burst_bytes: 200,
            },
        ));
        let f = udp_frame(&[0u8; 100]); // 133-byte frame
        assert_eq!(pe.evaluate(0, &f, 0.0), Verdict::Forward);
        assert!(matches!(pe.evaluate(0, &f, 0.0), Verdict::Drop(_)));
        // One second later the bucket has refilled 1000 bytes (cap 200).
        assert_eq!(pe.evaluate(1_000_000_000, &f, 0.0), Verdict::Forward);
    }

    #[test]
    fn jitter_spreads_delay_over_the_draw() {
        let mut pe = PolicyEngine::new().with(Rule::new(
            "jitter",
            MatchExpr::True,
            Action::Jitter {
                min: Duration::from_millis(10),
                max: Duration::from_millis(50),
            },
        ));
        let f = udp_frame(b"x");
        assert_eq!(
            pe.evaluate(0, &f, 0.0),
            Verdict::Delay(Duration::from_millis(10))
        );
        assert_eq!(
            pe.evaluate(0, &f, 1.0),
            Verdict::Delay(Duration::from_millis(50))
        );
        assert_eq!(
            pe.evaluate(0, &f, 0.5),
            Verdict::Delay(Duration::from_millis(30))
        );
    }

    #[test]
    fn delay_and_dscp_verdicts() {
        let mut pe = PolicyEngine::new()
            .with(Rule::new(
                "lag-competitor",
                MatchExpr::DstPort(16384),
                Action::Delay {
                    extra: Duration::from_millis(80),
                },
            ))
            .with(Rule::new(
                "downgrade",
                MatchExpr::True,
                Action::SetDscp { dscp: 0 },
            ));
        let voip = udp_frame(b"rtp");
        assert_eq!(
            pe.evaluate(0, &voip, 0.0),
            Verdict::Delay(Duration::from_millis(80))
        );
        let other = build_udp(SRC, DST, 46, 1, 2, b"x").unwrap();
        assert_eq!(pe.evaluate(0, &other, 0.0), Verdict::ForwardDscp(0));
    }
}
