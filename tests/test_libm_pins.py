"""The C library results that regeneration rests on, pinned.

Generated geometry goes through the C library's ``sin``, ``cos``, ``tan`` and
``atan2`` (``geometry._cos_sin_deg``, ``offset_path`` and
``Transform.rotation_deg``). These are not correctly rounded, and two C
libraries may round a result differently in its last bit. A drawing saved on
one host would then regenerate different bytes on the other and fail to load
there with ``IntegrityMismatch``. These pins fail first, and say where the
host differs. See "What regeneration rests on" in ``docs/file_formats.md``.

Recorded on x86-64 Linux with glibc 2.36 and CPython 3.11.7. Each table
holds the first 8 hex digits of the SHA-256 of one block's results, packed
as little-endian binary64, in block order.
"""

from __future__ import annotations

import hashlib
import math
import struct

from modraft.geometry import _cos_sin_deg

# (angle, cos, sin) where glibc 2.36 is not correctly rounded: cos at 101.5
# and 242.5 degrees, sin at 297 and 351 degrees are one unit in the last
# place away from the nearest binary64 value.
_OFF_BY_ONE_ULP = [
    (101.5, "-0x1.984e37318b212p-3", "0x1.f5b8b0ddc720fp-1"),
    (242.5, "-0x1.d8d4a0e345740p-2", "-0x1.c62648af6576fp-1"),
    (297.0, "0x1.d0e2e2b44ddfep-2", "-0x1.c83201d3d2c6ep-1"),
    (351.0, "0x1.f9b24942fe45bp-1", "-0x1.4060b67a8537ep-3"),
]

_ATAN2_RANGE = range(-64, 64)


def _digest(values: "list[float]") -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:8]


def _cos_sin_blocks() -> "list[str]":
    """One digest per degree: cos and sin at its 1,000 thousandths."""
    out = []
    for degree in range(360):
        values: "list[float]" = []
        for k in range(1000 * degree, 1000 * degree + 1000):
            values += _cos_sin_deg(k / 1000)
        out.append(_digest(values))
    return out


def _tan_blocks() -> "list[str]":
    """One digest per degree of [0, 90): tan of the angle in radians at its
    1,000 thousandths, as ``offset_path`` takes tan of a half turn."""
    return [_digest([math.tan(math.radians(k / 1000))
                     for k in range(1000 * degree, 1000 * degree + 1000)])
            for degree in range(90)]


def _atan2_blocks() -> "list[str]":
    """One digest per row y of an integer grid: atan2(y, x) for each x."""
    return [_digest([math.atan2(y, x) for x in _ATAN2_RANGE]) for y in _ATAN2_RANGE]


def _differing(found: "list[str]", pinned: str, where) -> "list[str]":
    pins = pinned.split()
    assert len(found) == len(pins)
    return [where(i) for i, (a, b) in enumerate(zip(found, pins)) if a != b]


def test_cos_sin_deg_where_the_c_library_is_not_correctly_rounded():
    for angle, cos_hex, sin_hex in _OFF_BY_ONE_ULP:
        cos_a, sin_a = _cos_sin_deg(angle)
        assert (cos_a.hex(), sin_a.hex()) == (cos_hex, sin_hex), angle


def test_cos_sin_deg_at_every_thousandth_of_a_degree():
    differing = _differing(_cos_sin_blocks(), _COS_SIN_PINS,
                           lambda d: f"[{d}, {d + 1}) degrees")
    assert differing == [], "_cos_sin_deg differs from the pins in " + ", ".join(differing)


def test_tan_on_a_grid_of_half_turns():
    differing = _differing(_tan_blocks(), _TAN_PINS,
                           lambda d: f"[{d}, {d + 1}) degrees")
    assert differing == [], "math.tan differs from the pins in " + ", ".join(differing)


def test_atan2_on_an_integer_grid():
    differing = _differing(_atan2_blocks(), _ATAN2_PINS,
                           lambda i: f"y = {_ATAN2_RANGE[i]}")
    assert differing == [], "math.atan2 differs from the pins at " + ", ".join(differing)


_COS_SIN_PINS = """
75bf3b45 a4f897a3 85708f17 f82e32b6 01c0ab3d 9b5161eb b7cda7ba 2af1730b
63d31a7e 84aacae4 6f6095fb 5a3ddd6a 0af2a987 d214bdd3 d0908188 7b57e232
b79b6fc2 ff883ec9 f6a8d95d 4fab958b 239a4427 fce711bf a29766a0 dc855564
7eebb94d 809a55fd 8a22b59a 59192b53 3e1c5f41 5f8d2f6f b24484a8 3b702bbf
35729cea a435d897 13c92aea f8a784e9 3d2e1185 67886502 d2af8de1 6f912975
a07d3953 6278c6e2 19b07ba5 14830cd8 7022a629 711b365b b34bd67c a0e30b5d
c460abbe adf06429 9cbd15c5 b449457c 2895c945 bc3a967d dc88890a ab006b11
7dbfd83c 701a1e9f d6495f45 2fc01010 d621d939 b095994e aa31efc4 46018169
41a37bfd 7a054f5b cd20092a b2bdf04e 98676031 4333f9d3 ff82dd2c 1cd42e24
8839d8b0 c6f11ccd 21f0bb7a e92ce970 130aa372 6019908c e3bc1d1e 3d41d1e3
a2cfc88e 373f7ca8 a9faa235 712deaf3 81872467 903a646b 3752299f cf5cd877
21556e29 07cde8ff 5be26291 d7c8dd33 25295cd5 2387a49e 2e0e6d60 eba9cd3e
77e6f8bb 0f8b2f5c 5a8ac942 9aa6f0ed 6aff3e24 b489c2a0 f29089bc 70299eae
dc065667 2b4c651e d6fc4abb 3d7f7fa1 07c76795 2e3684c0 1dcf45af bd171a0d
8d93b186 895351c3 bcf75965 de0cc435 e29d79e2 b0a5b8ce 40bfcd86 64051e02
9a0cf43d fed446d6 09edfc70 52721d66 3d96b0b4 d23976d4 d4278e5b 9ca0b8e8
b0020955 385e2fb9 0017bd36 83bd097e 208754cd 6703126f bbc763a8 8d1db433
1127f23e 654dffc4 d2bbab6b 9ae984c0 23bca650 97497d3e 793cc737 b7893269
09c6f25c 64115204 c237f220 42abb872 1a11d458 3964854e a5f9b1fe af615472
c1f377fb 4472b09b e74a94e0 af5e3cc3 75d6493b afe7ab5d 3d618369 dc9c8d2b
bed6dc40 985b3928 cf452201 b3430df3 0f3f08d0 11f72657 9ab933fc 900a380e
8cccc2bc 605988b9 bc0933b7 61c431ce 5ae8d48d 999f3724 38617ed6 d2db082d
9aa32335 0d8e7152 d5de3c72 f0a98814 65804a91 b988eb44 8a88de5b 4e64520e
02ab75b3 0493bb5a 7bf4e28b 61547113 2b0c2e55 599fe1f4 8e8b3389 867c57ae
8fd2daec 530342fb a7c0c722 234f55a8 56077d29 cf8cbd40 589d53f0 0a093b1f
420b2403 cf3aac05 3ebc8632 f9acc35b f41b64bb 2595ef37 613419d9 bb2ed7fc
16b76e66 2b8fc248 c4c54594 8e1e0c12 7449d387 c98c2512 d44a96c8 a2173a0c
036079b0 1fc922bc bd0e2c61 03828d32 a7636af2 cf9d2397 33c6cfe8 8506405d
569f4d6b f86f3f53 029d5e44 e6e2796e b99b621a 4c093c96 fe4c02de 3479f865
0cb9b0ac 339aea29 a6d299c6 c515243a f8cddc60 111f4b87 825e50c7 1e5ea6d5
291cc693 6a1bd553 5e81b9be af719da7 4dd0347d 5125b2bb b72c3f7d 4612d750
3f311832 26809e36 c6d93dae f33fa12d 049b63fd 11185ab2 dac70996 d53c04a5
cf0e47e1 8deb8f81 f25cdae4 32773fe3 6a6acca0 9cd562f0 e2310a48 6e05e038
b37cf5a2 a3251b1d 1a0ebb70 32e7dd06 ecc69f29 c7e6add9 c7422910 0c45e54b
fd05e881 613430d2 72ee083c 6d65964e b28bd9b7 7a1664f5 87c037f9 b63bf6b1
0d5b869c ce3a50c2 9440141e 79a431cf a10d84f9 8463d958 15d32b47 641dc1da
b9602d1e 3586d92d 28446e9a 93fa24ae 0b9026c4 253b9ccd ce5eeaa0 7184d484
0bc1b042 e5405f2f 4b462942 ef859981 0f5bb84c a67cd648 0cf81592 1fcb58f8
be9fa30f 6dc9d312 00222cf7 4f745b92 50585b15 cd3aa216 e51bf813 dfdfecad
d9413e5c 51e54061 c0ac7a97 be0b383b a3d16b7b a38ec312 b1ee83c3 9f3c591f
2c8bdc56 0a3b9856 e366c48d babfe3c7 806b495e 057627c1 179a3c41 1cb7df3f
eac95408 f89ea4c9 e9120f8e deca04f3 fffa60fa 1a4ac9ba 3f5ee92b 530a7f37
ee762b8c 902ffd2a f8d15cb6 1d0d361f 84d93ace 9cd13fc7 baac2494 5c4a505b
22379fa5 beb6827e f7d52cce 2d3fb661 ac199a16 ec119674 ec1896cd bf009bf2
6999245a 70986937 7c14e930 f23bc9f6 282ef459 89ef90b1 4cf31666 212ba702
"""

_TAN_PINS = """
16284d45 2b5829f4 4be7d63b 57e973cd 460056a1 f05ced7b 3432f086 b6eed1e2
e382af91 6b329544 f7e008c3 268547c0 78d4dff9 91a5fdf9 d57d4139 554be12b
aae74105 2c95e579 9d3fb8d8 917f81b0 dd5811c6 cda1e1a2 3ea5b586 fb2150ce
ef531f98 823c85fc b0f71755 a15f5398 6018bbe2 d86f161e 8bc08d4a 0b34538d
23352edd d6269fd3 b8c2d921 1e801cae 0d1ee0ce d25faf64 819aee59 d53af5c8
0b5a0eb3 09b7595f 58876083 29955b7d d11f30b7 f52e447a 25e104a4 f8e0a00d
45b3e5e5 31d836f2 d71b7216 e2b876a5 bb6726d6 d214d4cb 23eafcf1 47ffb711
c1beeca1 cd3344d4 cae5eba1 1a25434e 55f192c3 674fb330 33e900ec dd5a1886
8fd29d33 2fe0be24 d2644b7f 94775172 eded21a6 72b1c3f2 b7e45fdf 82e67466
8957feaa e525b107 ffb14eb2 cb288829 8ec694be db4b78ba a3c51ee4 0d3618aa
7aab8edc 12d8c243 27bc059e 6aa33b6e 1858ecc8 c7ee494a 59b851f3 7883f4b0
cf7d2691 ba6463a8
"""

_ATAN2_PINS = """
22654ff8 ce82dd4c ca055883 f8dfc52f 5c91364b af3d0605 a71e52f2 4a2ac9f5
8701c542 afc73587 75b4d130 74afabc1 970c6ca5 2880094b dc2c06ca 0f4bf7a1
11934e35 6fe23e0a cb9378cc 38ebb9f5 5b1a10cd ec891b45 8c2ce18b bfc2e32d
55cfb634 18bcc02f f80f34d6 cd0e1331 2f663dd2 1653cfe3 8e07d359 e6b721d7
f7fc1707 161b906f fbf87a3f d90907ca eabb3c28 0e5dd2e4 b7aff3a4 eace3956
2703f709 4682a7b1 23fb0e57 a0a1f263 1a1789d8 8eff4b6a b9fb15b8 1ab462e9
cf30d15e e148144e 76f38e09 d6aeb7d6 1ba42462 b7e51089 6455fa7b 64c0c304
2c775556 b0f2e96a 88f551d2 e7de6e34 c980399e 0689ed53 dd38fcd4 126f839c
34bfaa4d 7adf1ab4 06353374 81f51b4a 3262488c 682b2da6 90829c17 57b49090
da8735b2 ad620956 6f3cb52c 861383cb 2b602c47 f58e0bde c181f8a1 130f8fa5
07b013c6 ebcb82fd 76f9f482 80565bd5 bc60c8cd 74d32c62 6da61cb1 868f4dbe
6361cdeb 5b7d7148 a1760931 dec69da5 14b26611 6ff882b6 ad0e99b3 853960c5
c0504bd6 8bcce80c a1acb0ec 38e8d86b 7accf295 07f14687 b0a8a495 bd49cbc8
3a802bdf 73538768 1e29a61c 32b63bcf e0096f8a ebc6f51b 7301c79c 52f95dfe
f1b11fef 1811dfa6 09764825 fea4d559 b70cadac 3bf3ce28 0495094b 94760df6
df627e0e e676ac9a c1f7d8f9 e53deeff 74898a8f 5fd8a607 06b2ea08 d879ff2d
"""
