//! Bit pins of the off-line characterization's fitted cost model.
//!
//! [`characterize`] times the one-to-all, all-to-one and all-to-all
//! bursts at every processor count `2..=P` through the medium's
//! single-message path (`measure_pattern` → `MediumSim::send`) and fits
//! a quadratic to each curve. At P=256 the all-to-all burst alone is
//! 256·255 = 65,280 messages. The pins hold the `f64::to_bits` of every
//! fitted coefficient, on the shared bus and on the switch, so a rewrite
//! of the medium's contention step (or of the fit) must leave each one
//! where it is.

use now_net::{characterize, NetworkParams, Poly};

/// The control-message size the analytic model characterizes at.
const BYTES: usize = 64;

/// `(P, [OA, AO, AA] coefficient bits, lowest degree first)`.
type Pins = [(usize, [[u64; 3]; 3]); 4];

const PAPER_ETHERNET: Pins = [
    (
        4,
        [
            [0x3f455ec5409fb9ee, 0x3f4df761cbccf3c2, 0xbc59000000000180],
            [0x3f326d31a357ab71, 0x3f5205bc01a374b2, 0xbc91300000000108],
            [0x3f6080b673c4f3d6, 0xbf3e955e124ba49a, 0x3f3e955e124ba3e2],
        ],
    ),
    (
        16,
        [
            [0x3f455ec5409fbcb5, 0x3f4df761cbccf23a, 0x3c2357357357358a],
            [0x3f326d31a357cc0b, 0x3f5205bc01a36e77, 0xbc2ef1ef1ef1ef44],
            [0x3f6080b673c4f611, 0xbf3e955e124ba8db, 0x3f3e955e124ba400],
        ],
    ),
    (
        64,
        [
            [0x3f455ec5409fc314, 0x3f4df761cbccf1f8, 0x3c0f9695e89fed37],
            [0x3f326d31a357e2e9, 0x3f5205bc01a36dd7, 0x3c120ce7f2a4878d],
            [0x3f6080b673c466c7, 0xbf3e955e124ae000, 0x3f3e955e124b9e55],
        ],
    ),
    (
        256,
        [
            [0x3f455ec5409fda17, 0x3f4df761cbccf1ca, 0x3bfc7cd4477ac850],
            [0x3f326d31a35778cf, 0x3f5205bc01a36ea6, 0xbc00b31b560a2ece],
            [0x3f6080b674972e4d, 0xbf3e955e1282fc60, 0x3f3e955e124beeff],
        ],
    ),
];

const SWITCHED_LAN: Pins = [
    (
        4,
        [
            [0x3ee6504e770666ba, 0x3ef4f8b588e36cd0, 0xbc24500000000138],
            [0x3ea5798ee230093a, 0x3efa36e2eb1c461c, 0xbc1f4000000001e0],
            [0x3ea5798ee230093a, 0x3efa36e2eb1c461c, 0xbc1f4000000001e0],
        ],
    ),
    (
        16,
        [
            [0x3ee6504e77067447, 0x3ef4f8b588e36897, 0x3bd357357357358a],
            [0x3ea5798ee2307351, 0x3efa36e2eb1c4365, 0xbbc7357357357373],
            [0x3ea5798ee2307351, 0x3efa36e2eb1c4365, 0xbbc7357357357373],
        ],
    ),
    (
        64,
        [
            [0x3ee6504e77067511, 0x3ef4f8b588e368d1, 0x3ba20ce7f2a4878d],
            [0x3ea5798ee2307866, 0x3efa36e2eb1c4344, 0xbb9b135bebf6cb54],
            [0x3ea5798ee2307866, 0x3efa36e2eb1c4344, 0xbb9b135bebf6cb54],
        ],
    ),
    (
        256,
        [
            [0x3ee6504e77065399, 0x3ef4f8b588e36948, 0xbb91ae956a28e643],
            [0x3ea5798ee22d271b, 0x3efa36e2eb1c43b7, 0xbba3a5899266552e],
            [0x3ea5798ee22d271b, 0x3efa36e2eb1c43b7, 0xbba3a5899266552e],
        ],
    ),
];

fn bits(poly: &Poly) -> [u64; 3] {
    let c = poly.coeffs();
    assert_eq!(c.len(), 3, "the fit is quadratic");
    [c[0].to_bits(), c[1].to_bits(), c[2].to_bits()]
}

fn check(name: &str, params: NetworkParams, pins: &Pins) {
    let mut actual = Vec::new();
    for &(p, _) in pins {
        let m = characterize(params, p, BYTES).model;
        actual.push((p, [bits(&m.oa), bits(&m.ao), bits(&m.aa)]));
    }
    assert_eq!(
        actual.as_slice(),
        pins.as_slice(),
        "{name}: fitted coefficients moved"
    );
}

#[test]
fn paper_ethernet_coefficients_pinned() {
    check(
        "paper_ethernet",
        NetworkParams::paper_ethernet(),
        &PAPER_ETHERNET,
    );
}

#[test]
fn switched_lan_coefficients_pinned() {
    check("switched_lan", NetworkParams::switched_lan(), &SWITCHED_LAN);
}
