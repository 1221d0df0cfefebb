"""Bit-exact pins of the two Dixmier-trace block spectra on five presets.

The literals are float.hex values recorded before the closed, residue,
sampled and tail routes of |D|^-1 and of the volume form shared one trace
layer, so any change in the last bit of a route shows here.  The exponents
are built from the recorded dim_s: the reciprocal-ratio routes run at
dim_s + 0.2 (closed, depth-6 partial sum) and dim_s (residue, sampled
limit); the volume routes at dim_s / n (residue, sampled limit) and
dim_s / n + 0.1 (depth-2 matrix-block sum).
"""

import pytest

from fractal_dirac import (
    dixmier_trace_dirac,
    preset,
    quantized_volume,
    quantized_volume_truncated,
    zeta_closed,
    zeta_truncated,
)
from fractal_dirac.spectral import residue_limit_samples, volume_residue_samples

FIELDS = (
    "dim_s",
    "zeta_closed",
    "zeta_truncated",
    "zeta_truncated.error_bound",
    "dixmier_trace_dirac",
    "residue_limit_samples",
    "quantized_volume",
    "volume_residue_samples",
    "quantized_volume_truncated",
    "quantized_volume_truncated.error_bound",
)

PINS = {
    "cantor_set": (
        "0x1.4309398353000p-1",
        "0x1.44728cfcd327cp+3",
        "0x1.fd837abeea25ep+2",
        "0x1.16c33e7578535p+1",
        "0x1.71547652b84d4p+1",
        "0x1.71547cab5bfaap+1",
        "0x1.71547652b84d4p+1",
        "0x1.71547cab5bfaap+1",
        "0x1.596f00973f0acp+2",
        "0x1.ba6c0f8ea2342p+3",
    ),
    "sierpinski_carpet": (
        "0x1.e48dd644fc800p+0",
        "0x1.44728cfcd5024p+4",
        "0x1.fd837abeebb06p+3",
        "0x1.16c33e757ca82p+2",
        "0x1.ec709dc39fb5dp+0",
        "0x1.ec70a639835ddp+0",
        "0x1.ff14d5cdd312ap-1",
        "0x1.ff14de95b3f37p-1",
        "0x1.2f520f1faae66p+2",
        "0x1.4509fad1f986cp+2",
    ),
    "menger_sponge": (
        "0x1.5d08dd5a28400p+1",
        "0x1.44728cfcd2fa6p+5",
        "0x1.fd837abeea003p+4",
        "0x1.16c33e7577e94p+3",
        "0x1.55d1d1247de35p+1",
        "0x1.55d1d23f0d2b7p+1",
        "0x1.31bb95020b398p-1",
        "0x1.31bb95ff69cbfp-1",
        "0x1.b24bfb6cac247p+1",
        "0x1.014dc803e84b0p+1",
    ),
    "rotation": (
        "0x1.5555555555800p+0",
        "0x1.54e21806a87b9p+4",
        "0x1.055e8ec56ef9fp+4",
        "0x1.3e0e2504e6065p+2",
        "0x1.71547652b841cp+1",
        "0x1.7154734372204p+1",
        "0x1.d1539906d6874p+0",
        "0x1.d153952bf99e9p+0",
        "0x1.73f68f2adee0ap+2",
        "0x1.ad7c637a59b19p+2",
    ),
    "non_osc": (
        "0x1.d86510d366800p+0",
        "0x1.c6a28e66851b0p+4",
        "0x1.29724b4595617p+4",
        "0x1.3a608641df732p+3",
        "0x1.680f283f47055p+1",
        "0x1.680f2a8c8d7e5p+1",
        "0x1.7be444b80bf5dp+0",
        "0x1.7be44725c7934p+0",
        "0x1.474d422fdf561p+2",
        "0x1.1be743a31591cp+3",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_routes_match_recorded_bits(name):
    ifs = preset(name)
    dim = float.fromhex(PINS[name][0])
    n = ifs.n
    trunc = zeta_truncated(ifs, dim + 0.2, 6)
    volume = quantized_volume_truncated(ifs, dim / n + 0.1, 2)
    got = (
        dim,
        zeta_closed(ifs, dim + 0.2).value,
        trunc.value,
        trunc.error_bound,
        dixmier_trace_dirac(ifs, dim).value,
        residue_limit_samples(ifs, dim)[2],
        quantized_volume(ifs, dim / n).value,
        volume_residue_samples(ifs, dim / n)[2],
        volume.value,
        volume.error_bound,
    )
    assert dict(zip(FIELDS, (x.hex() for x in got))) == dict(zip(FIELDS, PINS[name]))
