"""Golden digests of the catalog-driven CLI outputs.

The sha256 of `detect`, `detect --all`, `audit --json` and a forced
constructive run (`--base-limit 6`) is pinned for seeded
graphs from both regimes, so any change to detection order, witness
content or reduction traces shows up as a digest mismatch.  A fifth column
pins only the palette and colors of the same forced run (`--json`), so a
change to the trace's labels or digests leaves it unchanged while any
change to the coloring does not.  The bridge
graph is the one input whose reduction contracts an edge, because deleting
its cut vertex would disconnect it.  The 11-gon bipyramid is the one input
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
        "a8b6361fc2a1b59efd40e6eadac1f62f0c7f0b30fc010a51f54cf26a6995bc53",
        "ace3904472e229d272f2740c35b9319cf3323c3565f9797d6d9bf2b34a7e0bc9",
    ),
    "bridge": (
        "d01041f61681bb7ff09d601f608f6aa68ad4aac4da983acf8bbdf8f81c804ecd",
        "33fdc53af042e0eef8a96efeee0f183301589800741e9ecca53f9521d0a87b25",
        "cc00cb87300cee169b8cee887f337ec53c07cc3902ea2026fc3dbbedc09e4404",
        "9eebc920e0cb9695a8670691ae91e2e288a3fcd238b2ff3245a352886c427842",
        "42b90f0f20917b9c467b54ea0841e6d1c8ec5bc79e1e709afea89c2bc4100f39",
    ),
    "cube": (
        "74ba2f2f2155c342f00cf7d8fb96493fedf9c64cd889e9e94d372edd97f59891",
        "44411337573cc5269c9fad03568f892dd7e97f371c38a95c40a63c5da7084392",
        "d4f8959eab62885d23c166df174bdfc4c2d19f81f1825d68f75d327c0a7960eb",
        "3d72691cc4bd3e6076631a65bc80683a9e7b2d44e665a32432a1781083762ed5",
        "dacbb48591ace001b6443f5db2ae3971a409227126483d4eb1315b7ce3cf75b9",
    ),
    "double_pocket": (
        "1060f1018cdcf93e80f53c18470170451f2e8cb2402d4c275efc0fc6f3ddb534",
        "cb43ef77d12ba914b222cf54c0a4d046ba735e144a00b03e1cbf9e3caef00da9",
        "e395d9f2b1f5485de3c91c1e70f0b3739f8bcc00f4aac37ff0c74537f1efb8e7",
        "445e01c9c660155fff20487e0a6cd89bf7220a9f55cdab8cf299d5dcb78c9596",
        "99ff6d90add21b85f0528c700c8811be801722ea99fa24c976f97766853d0c87",
    ),
    "large0": (
        "be0c31b25023f5843da2097173c6b4394fab7491ae922273a3c0dff390ac8a35",
        "25f54b69f78dc8da998db692c4dd01fb007abd28e882710ce86f5406932ebe2d",
        "3db154b84eb2db617439e9bd4d8fcc80be96241c83d365594c1c1cfaa2356508",
        "f0b4cb2f48216f16893083ec71d211c8462473af52c818a2b411f0e23eaed7e0",
        "1536eed6411e4cf466a475b923b8a2c9bd08d92bc00ea1f0b0365f19dfec7f51",
    ),
    "large1": (
        "185582d855e1b21530af95a3c571c77bc45c620ededb7872a5771f6407c87c20",
        "ea5ef02fa76aabc53eea320e2733b8fffddc0679d23570e014fac60ff86ffb63",
        "567ce53c506e10ebd6c0d18b8a90670ffb51798cb8db24aa2d9b58209b286c4a",
        "440a1cd80ae8b54649abd2f0d5bc4e6e178154dd79f324b87b4d6d5dbb3bc117",
        "51e0a24a2db5a1d7116ea2059aab30d87932adf30d96a3e3f956d4978d24c53c",
    ),
    "large2": (
        "07763bf47aa88e6eec65d5b3c2602493a0de98594af367e55bc263a963d88dca",
        "a93b2baa10b60423f6781a177ffa94ba474d30cdb2bd28b65481e52706c40bfb",
        "0b95b69f9f7e5966767a1aff23e303fd5a57f4e01fac77e0c3aab249d88c271a",
        "9a68548af1a6870823957b862d913d4f728c45b6439d5c74537d22d0a7003869",
        "2843745776a594cbf59a20c055e891f00f548c5e8addc5a449be2e6016dfde16",
    ),
    "pocket": (
        "7a1b68c3151ecae149fe66b99f55e5c60ea7837a15028f42325e4cc3ccf1f212",
        "403df506ac7e4e10a5a1658dcabd5fde0ad26e981cc734ddc085569e6c00fc0a",
        "5f686ae9b31b68863a16735349e12e341886470714e857c3694efb6ee2585675",
        "d7f2feb0ca50e6b43d2abb7fd3e1cf8fda378ec459f33d1a3ab26bea94567ad1",
        "bcd849b753fd2782eda151fe5e98a98e27d751448980871eba63973e13a4c617",
    ),
    "small0": (
        "297779fd6eb75b3e2755dda4e3592cf118264a6edea7ac1e9ed88d1772336e3a",
        "be848a33e318c657d9f1a15fff37049a7f9230cc3e7474a2aa6248c918c2f49e",
        "394e356c8768f3345a9dfce10efb7181589b1980daabca62f3c6777aa8a27ddf",
        "08073605a3ced4a50d29e3659d17857ef57a50bbff30b1e26c856ac6b02ccfea",
        "cb441705e59f3e98f9f44ae24907e0d6a64c2feb6cb2bb5361d8db8ea1bdc62f",
    ),
    "small1": (
        "82faa61b19d87e1073e24ae062ec051e8867114677a7b8e1bbd4715c5fabce4c",
        "a9222e25d9d30919f58a5876fccb5cae6239db0af6fb2eb9bb50e6dec874fcf4",
        "0925c7f918bbcc1454410e2132d9d3f4b33325f4aeb9c589c3fa46b779c1d3d6",
        "d940a1686af0f12ea20928843a830c4c6a24bc00b40e7b4d11ecd3d9b7f11042",
        "95df824fe073dbca5c3b42b421d2a6ea668efe642e99a6ddc9ec29001886555a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_outputs(name, tmp_path):
    assert digests(golden_graphs()[name], tmp_path) == GOLDEN[name]
