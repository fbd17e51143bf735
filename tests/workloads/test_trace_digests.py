"""Every generated trace is pinned byte for byte.

The digests below cover the four trace columns (and the trace name) of
all 19 application models, two kernel mixes that between them drive all
11 sharing kernels through their parameter corners, and one
multi-programmed mix, at 20K accesses and two seeds. Any change to a
kernel, to the bulk RNG draws or to the interleaver that moves one access
shows up here.
"""

import hashlib

import pytest

from repro.workloads.fuzzmix import FuzzKernelMixModel
from repro.workloads.multiprogram import MultiprogramMix
from repro.workloads.registry import get_workload, workload_names

ACCESSES = 20_000
SEEDS = (42, 7)

# Skew exactly 1.0 on both pair-drawing kernels, power-of-two regions,
# strided and write-free private streams, and tiny lock regions.
MIX_A = {
    "format_version": 1,
    "llc_blocks": 2048,
    "kernels": [
        {"kernel": "private_stream", "period": 1, "offset": 0,
         "blocks_per_thread": 96, "stride": 2, "write_fraction": 0.25},
        {"kernel": "private_hotset", "period": 1, "offset": 0,
         "blocks_per_thread": 64, "accesses_per_thread": 300,
         "write_fraction": 0.3, "skew": 1.0},
        {"kernel": "shared_rw_random", "period": 2, "offset": 1,
         "blocks": 1024, "accesses_per_thread": 200,
         "write_fraction": 0.1, "skew": 1.0},
        {"kernel": "migratory", "period": 1, "offset": 0, "blocks": 128,
         "items": 40, "item_blocks": 2, "hops": 3},
        {"kernel": "lock_hotspot", "period": 1, "offset": 0, "blocks": 1,
         "rounds_per_thread": 50},
        {"kernel": "task_queue", "period": 3, "offset": 2,
         "queue_blocks": 8, "task_region_blocks": 256, "num_tasks": 60,
         "task_blocks": 4, "task_write_fraction": 0.4},
    ],
}

# Skewed draws with and without writes, the read-only kernel at skew 1.0,
# and every RNG-free kernel.
MIX_B = {
    "format_version": 1,
    "llc_blocks": 2048,
    "kernels": [
        {"kernel": "shared_readonly", "period": 1, "offset": 0,
         "blocks": 512, "accesses_per_thread": 250, "skew": 1.0},
        {"kernel": "private_hotset", "period": 1, "offset": 0,
         "blocks_per_thread": 3, "accesses_per_thread": 200,
         "write_fraction": 0.0, "skew": 2.2},
        {"kernel": "shared_rw_random", "period": 1, "offset": 0,
         "blocks": 777, "accesses_per_thread": 150,
         "write_fraction": 0.0, "skew": 1.5},
        {"kernel": "shared_readonly", "period": 2, "offset": 0,
         "blocks": 4, "accesses_per_thread": 64, "skew": 1.7},
        {"kernel": "producer_consumer", "period": 1, "offset": 0,
         "blocks_per_thread": 20, "chunk_blocks": 8, "hops": 2},
        {"kernel": "halo_exchange", "period": 2, "offset": 1,
         "row_blocks": 4, "rows_per_thread": 3, "sweeps": 1},
        {"kernel": "reduction", "period": 1, "offset": 0,
         "blocks_per_thread": 8},
        {"kernel": "broadcast", "period": 3, "offset": 0, "blocks": 32,
         "reader_passes": 2},
        {"kernel": "private_stream", "period": 1, "offset": 0,
         "blocks_per_thread": 33, "stride": 1, "write_fraction": 0.0},
    ],
}

MIX_COMPONENTS = ("swaptions", "canneal", "radix")


def generate(name: str, seed: int):
    """The trace that ``name`` stands for at ``seed``."""
    if name == "mix":
        return MultiprogramMix(MIX_COMPONENTS).generate(
            num_threads=8, scale=16, target_accesses=ACCESSES, seed=seed)
    if name in ("fuzzmix-a", "fuzzmix-b"):
        spec = MIX_A if name == "fuzzmix-a" else MIX_B
        return FuzzKernelMixModel(spec, name=name).generate(
            num_threads=8, scale=1, target_accesses=ACCESSES, seed=seed)
    return get_workload(name).generate(
        num_threads=8, scale=16, target_accesses=ACCESSES, seed=seed)


def trace_digest(trace) -> str:
    """sha256 over the trace's name and its four columns' bytes."""
    digest = hashlib.sha256(trace.name.encode())
    for column, typecode in zip(trace.columns(), "hqqb"):
        assert column.typecode == typecode
        digest.update(len(column).to_bytes(8, "little"))
        digest.update(column.tobytes())
    return digest.hexdigest()


TRACES = (*workload_names(), "fuzzmix-a", "fuzzmix-b", "mix")

DIGESTS = {
    ("blackscholes", 42):
        "456873af1d2d458100635fe46ace53e9d1d354a0448708b1fdccc76e37df08cf",
    ("blackscholes", 7):
        "b1d758dd8235d8f81a08b229f9646ec8515933bcecda699272b71d8e06cc8811",
    ("bodytrack", 42):
        "c953320b5622b128cc08eb536b6b922864b31b43202d57eef097a2e55cff04ff",
    ("bodytrack", 7):
        "2f86147b7ef7d1b412cbcdf82ad77ce80fff6a448e42a42d2979f1b5b1114f04",
    ("canneal", 42):
        "99a04b7a30945d5691e3cf4dded698778bf281153bc319a7d0ce460914d9cd4b",
    ("canneal", 7):
        "71bb8f83de31a57fd507a06f6be224d1346551fd9a2af31f84e95a014d625d14",
    ("dedup", 42):
        "1124f48c1b65bb8c23470e45521b4d1d4b89fca7557a24cc2582a1b6b196fbb3",
    ("dedup", 7):
        "42c742148e118cf68247caea77fbe19331eaa700a64947571f3cceb3891e7810",
    ("facesim", 42):
        "87d5083bdaa5a4795a1e3fbe3d283557a9440d9c2f07edcf558d15c63f1d454c",
    ("facesim", 7):
        "ca5abfae463799034bff6ecd1c0e9b39804217b738afdf0f41f1f71158563130",
    ("ferret", 42):
        "c52b087eff37ba8df085127ecf8d66dce530e49eba686b03209c6ad3cd5d1c0a",
    ("ferret", 7):
        "908aa7a297f3bec303f52b35120c9925e2bbb816c2c7c9bdccae404b134c4d0f",
    ("fluidanimate", 42):
        "89d363e3787822226f18cd35b22804f774939be43995960e391e7fc665e00c3b",
    ("fluidanimate", 7):
        "6ced45c866dc8241b138e25eedc5683942c2ba6bfca06190d4558429baa3e77e",
    ("streamcluster", 42):
        "012ee3636a1545be13cf280842095016110653c7f839426cd798a3fd54415b5a",
    ("streamcluster", 7):
        "071de00cc212719329a6bb6bc2557470646ad0a78bed3e1953f332e635ae5705",
    ("swaptions", 42):
        "06dd6ffca152b424e5c8571755ccf715b5ebb148a8fe4122f57c6851bc6f2399",
    ("swaptions", 7):
        "b0ecb2403e5e96e12bdddd0b8c87261822ae74d72e96ef32729e9c06d330b2e8",
    ("x264", 42):
        "489b215a16ef71794807fa688d6534637034685b03b2b67f339f47c4870c4d9b",
    ("x264", 7):
        "ee2e3cfd3b07c6ea2e1c3f51a3243fca6fc1610fc92095d570063a0fd9c3d4f0",
    ("barnes", 42):
        "2622ebda01a5ee4014329d3de8f20a6aa8a408dc45bc9d286cf734c773720c40",
    ("barnes", 7):
        "03a758f93144f131592ac4814c39791dab6e57671153307518f69c677cd3396e",
    ("fft", 42):
        "41d77333a604ce0e205e039250c7e48210ea20629f573af911029f3588a91014",
    ("fft", 7):
        "9cfb2ee3d40f4e751f20613f54e784bd7b5e49cf4aa161c8ba82364b53278d66",
    ("fmm", 42):
        "f0e518d92cfd24e5c4f3279e6202e30b275a9dd72a49d1806440dcce6f62004f",
    ("fmm", 7):
        "2d05271ca58ec3e7962159d3c2776495d72b07d9151547ff9a78bcaeefeeb6e5",
    ("ocean", 42):
        "93dc0365dca7ec55724852ddf90a38d0a2a6278d2f1e87e01b3d88d102ea8da2",
    ("ocean", 7):
        "5682718bd59fe0b7b0eaee23455c30101571be17e7435c2fc20e2a7f34aa7e4d",
    ("radix", 42):
        "b9dffe37eeb759870c959a98f6dace8d89ee4d490e09c4927fc57498fb6f5fb5",
    ("radix", 7):
        "fe74f77f85aac81888a6364d3b7c1b6bb892bcfbdecd728f979406103b4a3b62",
    ("water", 42):
        "e4d73c62921e35a2c01510b82679c82e85078c1ee32eb860f53ff2a601b74ac7",
    ("water", 7):
        "18dec93722e7d85bbe036196325d6231f6df67313c6ca5e51e8c172d81c4c677",
    ("applu", 42):
        "9f34ef93a53a78b2d7f8563889f6e458bd8a067b001f255c195d2255073c0095",
    ("applu", 7):
        "1092038ed6b776d26f6fbd009b4749cd0ebca00e234b25c3cd641ebc0a7b623f",
    ("equake", 42):
        "dc8e3a5f84d07048d8ef743cf34a7616a79a1633d9e8677bc025f87022ee4873",
    ("equake", 7):
        "68dc69dd3359ac5c3b3b3a70b5678fa4f16f7549c1ce091bd3d116ec32f6ab9b",
    ("swim", 42):
        "fb10ce2260125f680c745a939df5b574ef1e3077123732aec776fefab586b565",
    ("swim", 7):
        "b17450ed95477375c61bf795adee5d26d91de31fe249e96ea3000e10c18e5674",
    ("fuzzmix-a", 42):
        "76a36d6ed4af31b0fcb8f41638b8cc319afaa7a9f83f9bd54449123655c39dea",
    ("fuzzmix-a", 7):
        "10be7355774d98fedb97fb0ebe96fe6021ff2157948bb624eb17a32580325164",
    ("fuzzmix-b", 42):
        "64cbf2446846d9682d5e4255124a31865e62e01ba775dd43d09ad666148c916b",
    ("fuzzmix-b", 7):
        "529b34a37d92986c6a9064344f29fe7e574dba13e2a699aa3c822beaa928c774",
    ("mix", 42):
        "64e2e64311f93a99ae907c457774cb900b43586d8bf841f0ea153be72d84f820",
    ("mix", 7):
        "106f1582aba2b90a04d29781a9d9475e238ab05d582479a3b2d7efb9469e8c37",
}
"""Digests of the per-access generators (``kernels_reference``); the column
kernels must reproduce them."""


def test_every_trace_is_pinned():
    assert set(DIGESTS) == {(name, seed) for name in TRACES for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TRACES)
def test_trace_bytes_unchanged(name, seed):
    assert trace_digest(generate(name, seed)) == DIGESTS[(name, seed)]


def test_mixes_drive_every_kernel():
    from repro.workloads.fuzzmix import KERNEL_NAMES

    used = {entry["kernel"] for spec in (MIX_A, MIX_B)
            for entry in spec["kernels"]}
    assert used == set(KERNEL_NAMES)
