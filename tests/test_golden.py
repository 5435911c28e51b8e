"""Golden digests of the catalog-driven CLI outputs.

The sha256 of `detect`, `detect --all`, `audit --json` and a forced
constructive run (`--base-limit 6`) is pinned for seeded
graphs from both regimes, so any change to detection order, witness
content or reduction traces shows up as a digest mismatch.  The bridge
graph is the one input whose reduction contracts an edge, because deleting
its cut vertex would disconnect it.  The 11-gon bipyramid is the one input
reaching the discharging rule R2: each hub has degree 11 and only weak
neighbours.  The double pocket (two K4 pockets glued on the edge 0-1) is
the one input where G minus a separating edge's endpoints has three
components, so its split component is a union of two of them.
"""

import hashlib

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
        out.append(hashlib.sha256(f"exit={code}\n".encode() + body).hexdigest())
    return tuple(out)


# graph -> sha256 of (detect, detect --all, audit --json, forced color)
GOLDEN = {
    "bipyramid11": (
        "b940c5ab504eb04e6467575468dc9e76a3a3f49545a0aaf05db0b45913bcd397",
        "b940c5ab504eb04e6467575468dc9e76a3a3f49545a0aaf05db0b45913bcd397",
        "386e26513763836ad8c0f6dbdc2f2d61033409b6389d94a5bb9109e4a0b5b20f",
        "97cde0c52dfdb0294d9942a6b3a8179f9bc946c79d87a40a97a517afe39c75c7",
    ),
    "bridge": (
        "d01041f61681bb7ff09d601f608f6aa68ad4aac4da983acf8bbdf8f81c804ecd",
        "c5fefd0576e8308d4fd40a5cf6a63b1c89194ebf420030570928f655daf79755",
        "69129e7aba0f68f12d569f22efd1074f0af35d911cdbc4407e5d81ffb778084c",
        "58eb0b80185d3e35aabfeeb72b6840771905e78037d943c9912426ff90763c3f",
    ),
    "cube": (
        "74ba2f2f2155c342f00cf7d8fb96493fedf9c64cd889e9e94d372edd97f59891",
        "4b99784400b668f6d81a34d6e29478f4845306b13ac22e98414529ad891b35ad",
        "d1069f7002e369ccd1229c5a9d2c4fe7435c57107b6c9747b95e1d9a958d6925",
        "507d7a376ee07d82f0c5bad141c0f671ba5fe2dd0a5c50e9576446658333701c",
    ),
    "double_pocket": (
        "1060f1018cdcf93e80f53c18470170451f2e8cb2402d4c275efc0fc6f3ddb534",
        "cb43ef77d12ba914b222cf54c0a4d046ba735e144a00b03e1cbf9e3caef00da9",
        "a79a90e4023091e7a51b3a308bf1a4782b7cc1c85f0b5674b3f85e7016f1bed5",
        "5c46a65461c33672e613f6f32dc7f8af252799753b59b3d1c6b9fea151058b4d",
    ),
    "large0": (
        "be0c31b25023f5843da2097173c6b4394fab7491ae922273a3c0dff390ac8a35",
        "25f54b69f78dc8da998db692c4dd01fb007abd28e882710ce86f5406932ebe2d",
        "e4824020dc67399494a0b7b0d7c3ecb954105ff69867e10508005e2e0d3142cc",
        "8ef00f384dead5202e7f9575aebd18fd3f3a2a3922f5a10bcfac01b688d49aac",
    ),
    "large1": (
        "185582d855e1b21530af95a3c571c77bc45c620ededb7872a5771f6407c87c20",
        "ea5ef02fa76aabc53eea320e2733b8fffddc0679d23570e014fac60ff86ffb63",
        "a9d94ebbbddb7cefb2fcc3a6106471916248e493f997c650af942667bda4942c",
        "28095c24126105d41738ee4acfce2e508822b5a05d6c4c3aea8d1869ab0dc038",
    ),
    "large2": (
        "07763bf47aa88e6eec65d5b3c2602493a0de98594af367e55bc263a963d88dca",
        "a93b2baa10b60423f6781a177ffa94ba474d30cdb2bd28b65481e52706c40bfb",
        "c6cd112c724f1a65a56139cde5c82368e54ae007e66a7b53ea07d0b06c47037f",
        "fa10b0101d30f39d54c0f1fa96a8feff830bd4995a36872fb754ce76d47a2539",
    ),
    "pocket": (
        "7a1b68c3151ecae149fe66b99f55e5c60ea7837a15028f42325e4cc3ccf1f212",
        "403df506ac7e4e10a5a1658dcabd5fde0ad26e981cc734ddc085569e6c00fc0a",
        "cc53d0593d90fde014a437e836042e741490bbb981814159d9eecdb0c0c49dac",
        "47b0754eea3e4fb03ec763ded9f530c9e567d61ed72fb67eb3ca9348337e79db",
    ),
    "small0": (
        "297779fd6eb75b3e2755dda4e3592cf118264a6edea7ac1e9ed88d1772336e3a",
        "91bfa9ceba732b815b5bad6a4d20c44ffd88cee7b673e14aba06d786d1533fcd",
        "51cc43f8be326f9aeae2ae4157ee6627478bd012775c58174a88215d75eaa803",
        "59ccd8b1b63e2b35bdcccc89f4b2b6bf2621b92c2e2466a8138a5679956709ed",
    ),
    "small1": (
        "82faa61b19d87e1073e24ae062ec051e8867114677a7b8e1bbd4715c5fabce4c",
        "43acf5a516ce7a1ce18b314342515bb46ffe6c76370c6895a085be588f00ebb7",
        "27cf94171ff612d66337e223ced90ff2e97129950e3fb5d0ccc6825c0777968f",
        "4015ff96c693a134fc26f9b0e36233ef0b10908a71a36fc4809a6e9c3f8d5c4b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_outputs(name, tmp_path):
    assert digests(golden_graphs()[name], tmp_path) == GOLDEN[name]
