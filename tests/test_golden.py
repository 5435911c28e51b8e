"""Golden digests of the catalog-driven CLI outputs.

The sha256 of `detect`, `detect --all`, `audit --json` and a forced
constructive run (`--base-limit 6`) is pinned for seeded
graphs from both regimes, so any change to detection order, witness
content or reduction traces shows up as a digest mismatch.  A fifth column
pins only the palette and colors of the same forced run (`--json`), so a
change to the trace's labels or digests leaves it unchanged while any
change to the coloring does not.  The bridge
graph is the one input whose reduction deletes a cut vertex: deleting it
alone would disconnect the graph, so its two neighbours are first joined
by a bypass chord.  The 11-gon bipyramid is the one input
reaching the discharging rule R2: each hub has degree 11 and only weak
neighbours.  The double pocket (two K4 pockets glued on the edge 0-1) is
the one input where G minus a separating edge's endpoints has three
components, so its split component is a union of two of them.
"""

import hashlib
import json

import pytest

from conftest import bridge, cube, double_pocket, glue_pocket
from psc import cli
from psc import embedding as emb
from psc import generators as gen

COMMANDS = (
    ["detect"],
    ["detect", "--all"],
    ["audit", "--json"],
    ["color", "--mode", "constructive", "--base-limit", "6"],
    ["color", "--mode", "constructive", "--base-limit", "6", "--json"],
)


def golden_graphs():
    large = gen.gen_corpus(3, (20, 60), 9, 101)
    small = gen.gen_corpus(2, (12, 50), 3, 102, delta_max=6)
    pocket = glue_pocket(gen.gen_stacked_triangulation(22, 3), 0, 1)
    rows = [f"{i}: {(i + 1) % 11} 11 {(i - 1) % 11} 12" for i in range(11)]
    rows += ["11: " + " ".join(map(str, range(11))),
             "12: " + " ".join(map(str, range(10, -1, -1)))]
    bipyramid11 = emb.from_pg("\n".join(["n 13", *rows, ""]))
    return {"large0": large[0], "large1": large[1], "large2": large[2],
            "small0": small[0], "small1": small[1], "pocket": pocket,
            "cube": cube(), "bridge": bridge(), "bipyramid11": bipyramid11,
            "double_pocket": double_pocket()}


def digests(g, tmp_path):
    path = tmp_path / "g.pg"
    path.write_text(emb.to_pg(g))
    out = []
    for i, argv in enumerate(COMMANDS):
        dest = tmp_path / f"{i}.out"
        code = cli.main([*argv, str(path), "-o", str(dest)])
        body = dest.read_bytes() if dest.exists() else b""
        if argv[0] == "color" and "--json" in argv:
            obj = json.loads(body)
            body = json.dumps({"palette": obj["palette"],
                               "colors": obj["colors"]}).encode()
        out.append(hashlib.sha256(f"exit={code}\n".encode() + body).hexdigest())
    return tuple(out)


# graph -> sha256 of (detect, detect --all, audit --json, forced color,
# forced color's palette and colors)
GOLDEN = {
    "bipyramid11": (
        "b940c5ab504eb04e6467575468dc9e76a3a3f49545a0aaf05db0b45913bcd397",
        "b940c5ab504eb04e6467575468dc9e76a3a3f49545a0aaf05db0b45913bcd397",
        "c4019eea3f9b25edfa932a6dcef4a26ef630fe2247a7e382693ece0823b3ce27",
        "cb538313fff93803dffc65f417257303c32d7d70ec3283033d0fd4afafc67b6b",
        "ace3904472e229d272f2740c35b9319cf3323c3565f9797d6d9bf2b34a7e0bc9",
    ),
    "bridge": (
        "d01041f61681bb7ff09d601f608f6aa68ad4aac4da983acf8bbdf8f81c804ecd",
        "988216d221227ed0e00fa5416efd6a2913b1a9dc66da01a1557156b8121335aa",
        "436f5824f3da3494a195003a9a4104e98f12b6696c1c701d035eadad8cde1070",
        "59b9e984978429b9f5823e2af925db0af008d9b5c5c609dddcdd16ef393a3e06",
        "42b90f0f20917b9c467b54ea0841e6d1c8ec5bc79e1e709afea89c2bc4100f39",
    ),
    "cube": (
        "e31db4b3b4efcbb68ebcbb27a8c02b5af24de58933626b945bcaa8ede1824ce1",
        "3d630c0d7c0a77547fa12d5f42b5532524749dab6cafde0630485feda85050f1",
        "c6ec0c10626897b7048867be3600cbeee7ff74f52b11a4bf1f45fec5a78216fd",
        "af5a11748a7680f404dcac96f0a6fcda68ccdb9d51167ed56104119b11551755",
        "dacbb48591ace001b6443f5db2ae3971a409227126483d4eb1315b7ce3cf75b9",
    ),
    "double_pocket": (
        "1060f1018cdcf93e80f53c18470170451f2e8cb2402d4c275efc0fc6f3ddb534",
        "f2554ff95337d8084de82b92f20f1aabb4db41c28a65b2711f383627617169a9",
        "600f502d2aa52756fc18a480df08029bc0d875d204ae147008cc34c550cf2111",
        "36a4b8a5555d82db0f1736d554694ab81d5ea89e5e99f0a82452d1216a6713e9",
        "99ff6d90add21b85f0528c700c8811be801722ea99fa24c976f97766853d0c87",
    ),
    "large0": (
        "be0c31b25023f5843da2097173c6b4394fab7491ae922273a3c0dff390ac8a35",
        "283f246de29227b3b6e6f422e97fa33b6a87dcb140e4afe04d0c822eebfa014d",
        "3e6c3a0af843534c5c108ac04f12fed69be1aaf617bbd2794a205580e220c910",
        "bdc4c6f8f13091e5cf54ca1a2f83d4eac340ca8bb5d70c67bbc49a9a5fb6d46e",
        "1536eed6411e4cf466a475b923b8a2c9bd08d92bc00ea1f0b0365f19dfec7f51",
    ),
    "large1": (
        "185582d855e1b21530af95a3c571c77bc45c620ededb7872a5771f6407c87c20",
        "6890820ecbb082b36ca06b3e21df55cfe7c1369dbfde2a41bdd76660cf966eda",
        "ed88266f1d46f1d5d54d3a8fd6f0c69164799e685b74daecdf1d74c4fc0599c4",
        "3f08ca902fb9ed16e70922f04f4e4a8dcbbbf48d12a5a0265562e8ce77253f76",
        "51e0a24a2db5a1d7116ea2059aab30d87932adf30d96a3e3f956d4978d24c53c",
    ),
    "large2": (
        "07763bf47aa88e6eec65d5b3c2602493a0de98594af367e55bc263a963d88dca",
        "4c482b690ca7805be0cee0c47ecc8ff20d646ba18ceec34a85aaad9834db46d7",
        "ac680fa11bdec78ea1b7d00d2a20441e6b0c62fcb7f6e461fe53c04f1aa91bd4",
        "054ec5648591d55eae42d1eed0416e155ba9c603128f5f5fc5296471ca080df5",
        "2843745776a594cbf59a20c055e891f00f548c5e8addc5a449be2e6016dfde16",
    ),
    "pocket": (
        "7a1b68c3151ecae149fe66b99f55e5c60ea7837a15028f42325e4cc3ccf1f212",
        "e67590bd663ed7f4aa8254628afc5d0b2b1d5c89882e4f52333516c4dc281c8a",
        "bd220064d638c9a93aca0f71d59b971a8758e29ac70253157557f836eb63e974",
        "e07c575741ae14e11f18d731a64cd241afe64c44afb81ae910b95abafcec6163",
        "bcd849b753fd2782eda151fe5e98a98e27d751448980871eba63973e13a4c617",
    ),
    "small0": (
        "297779fd6eb75b3e2755dda4e3592cf118264a6edea7ac1e9ed88d1772336e3a",
        "482f3cf57112f90bb5cde98b8663a4b181d80976a99bad033962a2939bdff542",
        "c73b583d2b690db6e2285a2178ce80a96e4d707a6613b0b7eda8218686876708",
        "3e46c61604ffad4311a3089b317fb149e86cfde6aacaaaa096e9384ca42d703a",
        "cb441705e59f3e98f9f44ae24907e0d6a64c2feb6cb2bb5361d8db8ea1bdc62f",
    ),
    "small1": (
        "82faa61b19d87e1073e24ae062ec051e8867114677a7b8e1bbd4715c5fabce4c",
        "10064dc1e4e27d6d42aeb5f5f911299fac7d5c1fe93735b5952dfba351e5f3f5",
        "8ba3e342a67ccf1a6c79245a8d12fbaaaa1bde60221622944535edef2fe15f98",
        "58b5fca10e501f5c37c819337990ae894cf79395f449f735082dcc6f85f9b92a",
        "95df824fe073dbca5c3b42b421d2a6ea668efe642e99a6ddc9ec29001886555a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_outputs(name, tmp_path):
    assert digests(golden_graphs()[name], tmp_path) == GOLDEN[name]
