"""The stream is the contract: YCSB inputs are a pure function of the seed.

Every number this repo prints starts with the YCSB client turning a seed
into records, updates, key names and key choices.  PR 17 rewrote that
path to run at C speed (one ``getrandbits`` and one ``bytes.translate``
per payload instead of one ``random.choice`` per byte); these tests are
what "without changing one generated byte or one generator state" means:

* **golden** -- digests of long output streams *and* of the generator
  state afterwards, recorded at 4b04875 (the parent of PR 17) before any
  source change.  A deliberate change to the input stream re-records
  them, regenerates ``bench_results/`` and says so in CHANGES.md.
* **stdlib oracle** (hypothesis) -- any interleaving of ``build_values``
  / ``build_update`` / ``random_field`` equals a reference that draws one
  ``rng.choice`` per byte from a second ``random.Random(seed)``, outputs
  and ``getstate()`` both.  This is what fails if a future CPython
  changes ``choice``; the golden then says which side moved.
* **scaling** -- Python-level calls per record do not grow with the
  payload length (``sys.setprofile``, exact on any host).
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ycsb.distributions import (
    CounterGenerator,
    DiscreteGenerator,
    ScrambledZipfianGenerator,
    SkewedLatestGenerator,
    ZipfianGenerator,
)
from repro.ycsb.generator import _PRINTABLE, FieldGenerator, build_key_name
from tests.support import py_calls

DRAWS = 20_000


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _state_sha(rng: random.Random) -> str:
    return _sha(repr(rng.getstate()).encode("ascii"))


# -- golden: field payloads --------------------------------------------------------

def _field_stream(field_length, seed):
    """200 inserts, then 500 updates with a ``random_field`` after every
    third: (digest of every name and payload, digest of the RNG state)."""
    gen = FieldGenerator(10, field_length, seed=seed)
    digest = hashlib.sha256()
    for _ in range(200):
        for name, payload in gen.build_values().items():
            digest.update(name.encode("ascii"))
            digest.update(payload)
    for i in range(500):
        for name, payload in gen.build_update().items():
            digest.update(name.encode("ascii"))
            digest.update(payload)
        if i % 3 == 0:
            digest.update(gen.random_field().encode("ascii"))
    return digest.hexdigest(), _state_sha(gen._rng)


FIELD_GOLDEN = {
    # (field_length, seed): (outputs, rng state afterwards)
    (100, 42): (
        "85b3bec71732cc54fd9272a92d1ef502a72c3a2f32ebd58e9e3764d7d1d5ee10",
        "3940434f80a27c12c2ca0984041742c6db5b027a2a20029d1cda5f9f0683e0c8"),
    (100, 0): (
        "03a9a8be687b99c7ddefa3b7b1be50ea631d5abab0cddfef19b7822b38bf60a0",
        "9ed159a2ad8cfbaabbe2840031c40d6b1f97f3e96c55851cf94587979d815680"),
    (100, 2 ** 31): (
        "763087bdc884d208a28add2f3fb5b3043311c5e9cd1c881490ad1ab23b898bca",
        "c1190b7b1acb994406e55227e12553ffc76c693e1d0ee4198e77791fea62b5a7"),
    (1, 42): (
        "3224444f346fbf6ac9e6d5dcb15136dbf7571f2f90d0eb57977bd76256883e56",
        "71215b57cce70a422537eb6068f677e1930db516e4391195375f98b8613111c3"),
    (33, 42): (
        "58d238acb51d402c53f76d2b2635e8cd40446379ed3554ae09ebd3cabadc89db",
        "d64f676a03a1589f75941a2106bb73470aaa8cabc6289828e2ca5f720209a44e"),
    (1000, 42): (
        "ed463e029cbe77083c396a299e6e1efb208d7cff55f7cd1c866bb90db6740483",
        "998dbb32ab7743df2730ae9ff3c081cadec8b53e6763417c580d69c6a3b564ba"),
}


@pytest.mark.parametrize("case", sorted(FIELD_GOLDEN))
def test_field_stream_golden(case):
    assert _field_stream(*case) == FIELD_GOLDEN[case]


# -- golden: key choosers and key names -------------------------------------------

def _scrambled():
    gen = ScrambledZipfianGenerator(0, 999, rng=random.Random(7))
    return [gen.next_value() for _ in range(DRAWS)]


def _zipfian():
    gen = ZipfianGenerator(0, 999, rng=random.Random(7))
    return [gen.next_value() for _ in range(DRAWS)]


def _skewed_latest():
    """Workload D's shape: the keyspace grows by one every fourth draw."""
    counter = CounterGenerator(100)
    gen = SkewedLatestGenerator(counter, rng=random.Random(7))
    out = []
    for i in range(DRAWS):
        if i % 4 == 0:
            counter.next_value()
        out.append(gen.next_value())
    return out


def _discrete():
    gen = DiscreteGenerator(
        [("read", 0.5), ("update", 0.3), ("insert", 0.2)],
        rng=random.Random(7))
    return [gen.next_value() for _ in range(DRAWS)]


CHOOSER_GOLDEN = {
    _scrambled:
        "c432e05f15d44ca09625777bd5aad3f4d9b9fa8d5779ce7352167f4980256362",
    _zipfian:
        "32b65cc2fca87db74cc6a020b3699a2798b56d201a11c0cf84a8e41da7db01e6",
    _skewed_latest:
        "1170bfb75bf1bb8d9e4022eab350bb1de9e342085a43ece54a54a06ea44e68f3",
    _discrete:
        "2c50a4cc208aea646b782355dc213b3ac6973ace51604b19c04dd249f06eea0d",
}


@pytest.mark.parametrize("stream", CHOOSER_GOLDEN,
                         ids=lambda stream: stream.__name__.lstrip("_"))
def test_chooser_stream_golden(stream):
    assert _sha(repr(stream()).encode("ascii")) == CHOOSER_GOLDEN[stream]


def test_key_names_golden():
    assert build_key_name(0) == "user12161962213042174405"
    assert build_key_name(999) == "user16375524972611165479"
    assert build_key_name(7, ordered=True) == "user0000000000000000007"


# -- the stdlib oracle --------------------------------------------------------------

class _PerByteOracle:
    """``FieldGenerator`` as it was: one ``random.choice`` per byte."""

    def __init__(self, field_count, field_length, seed):
        self.rng = random.Random(seed)
        self.names = [f"field{i}" for i in range(field_count)]
        self.field_length = field_length

    def payload(self):
        return bytes(self.rng.choice(_PRINTABLE)
                     for _ in range(self.field_length))

    def random_field(self):
        return self.names[self.rng.randrange(len(self.names))]

    def build_values(self):
        return {name: self.payload() for name in self.names}

    def build_update(self):
        return {self.random_field(): self.payload()}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64),
       field_count=st.integers(min_value=1, max_value=12),
       field_length=st.integers(min_value=0, max_value=300),
       calls=st.lists(st.sampled_from(
           ["build_values", "build_update", "random_field"]), max_size=12))
def test_any_interleaving_equals_per_byte_choice(seed, field_count,
                                                 field_length, calls):
    gen = FieldGenerator(field_count, field_length, seed=seed)
    oracle = _PerByteOracle(field_count, field_length, seed)
    for call in calls:
        assert getattr(gen, call)() == getattr(oracle, call)(), call
        assert gen._rng.getstate() == oracle.rng.getstate(), call


# -- scaling ------------------------------------------------------------------------

def test_calls_per_record_do_not_scale_with_payload_length():
    short = py_calls(FieldGenerator(10, 100, seed=1).build_values).total
    long = py_calls(
        FieldGenerator(10, 1000, seed=1).build_values).total
    # One draw per payload, not per byte (parent: ~3 calls per byte, 10x).
    assert 0 < short and long < 1.5 * short, (short, long)
