"""Golden hashes: fixed configs must reproduce their recorded output exactly.

Each config's trials are run in-process and folded into one SHA-256 over,
per trial, the CSV row, the adversary's `distribution_changes` and the
sorted `first_delivery` map.  The configs cover every adversary kind on
each engine that accepts it, both problems on the materialized engine, and
a deterministic walk whose degrees pass 2^53 (the analytic engine's
arbitrary-precision path).

A refactor that keeps behaviour keeps every hash.  A change that is meant
to alter the random streams re-records them:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from dataclasses import replace

import pytest

from dualradio import engine
from dualradio.engine import TrialConfig, run_trials, trial_csv_row
from dualradio.gadgets import (Gadget, build_gadget, chained_gadgets, double_star,
                               star_gadget)
from dualradio.model import DualGraph
from dualradio.schedules import (decay_schedule, frlb_schedule, rlb_schedule,
                                 rlbc_schedule)


def _custom(n, reliable, unreliable, broadcasters=(), receivers=()):
    return Gadget(kind="chained", graph=DualGraph.from_parts(n, reliable, unreliable),
                  delta=2, broadcasters=frozenset(broadcasters),
                  receivers=frozenset(receivers), source=0)


def _configs():
    star64 = star_gadget(64, 66)
    star16 = star_gadget(16, 18)
    star8 = star_gadget(8, 10)
    ds16 = double_star(16)
    ds64 = double_star(64)
    ds256 = double_star(256)
    gap_star = star_gadget(2 ** 10 + 1, 2 ** 10 + 3)
    gap_star_big = star_gadget(2 ** 12 + 1, 2 ** 12 + 3)
    virtual = build_gadget("star", 2 ** 24 + 1)
    huge = build_gadget("star", 2 ** 200)
    extreme = build_gadget("star", 2 ** 4885)
    chain10 = chained_gadgets(10, 24)
    chain257 = chained_gadgets(2 ** 8 + 1, 24)
    path8 = _custom(8, [(i, i + 1) for i in range(7)], [])
    mesh = _custom(10, [(i, i + 1) for i in range(9)],
                   [(i, i + 2) for i in range(8)] + [(0, 9), (2, 7)])
    # broadcasters 0 and 3 reach no receiver, even unreliably, and 1 reaches
    # only receiver 4, so it turns inert once 4 is reached
    inert = _custom(8, [(0, 6), (1, 4), (2, 4), (2, 5), (3, 7)],
                    [(0, 7), (2, 7), (3, 6)], broadcasters=(0, 1, 2, 3), receivers=(4, 5))
    # receiver 1 also broadcasts, so a transmission of its own hides its
    # neighbors' from it (half duplex)
    duplex = _custom(6, [(0, 1), (1, 3), (2, 3), (2, 4), (0, 5)], [(0, 3), (1, 4)],
                     broadcasters=(0, 1, 2), receivers=(1, 3, 4))

    def local(gadget, schedule, adversary, max_rounds, engine, **kw):
        return TrialConfig(problem="local", gadget=gadget, schedule=schedule,
                           adversary=adversary, seed=1000, max_rounds=max_rounds,
                           engine_mode=engine, **kw)

    def glob(gadget, schedule, adversary, max_rounds, **kw):
        return TrialConfig(problem="global", gadget=gadget, schedule=schedule,
                           adversary=adversary, seed=2000, max_rounds=max_rounds, **kw)

    a, m = "analytic_star", "materialized"
    return {
        # analytic engine, local broadcast
        "a-static": (local(star64, rlb_schedule(64, 3),
                           {"kind": "static", "tau": 3, "extra_degree": 5}, 300, a), 200),
        "a-iid-random-q": (local(star64, rlb_schedule(64, 2),
                                 {"kind": "iid_subset", "tau": 2}, 500, a), 300),
        "a-iid-fixed-q": (local(star64, frlb_schedule(64, 3),
                                {"kind": "iid_subset", "tau": 3, "edge_prob": 0.3}, 500, a), 300),
        "a-iid-tau-inf": (local(star64, rlb_schedule(64, 6),
                                {"kind": "iid_subset", "tau": None}, 500, a), 300),
        "a-gap": (local(gap_star_big, rlb_schedule(2 ** 12 + 1, 2),
                        {"kind": "gap", "tau": 2}, 3000, a), 40),
        "a-gap-virtual": (local(virtual, rlb_schedule(2 ** 24 + 1, 2),
                                {"kind": "gap", "tau": 2}, 2000, a), 10),
        "a-argmin": (local(star64, frlb_schedule(64, 2),
                           {"kind": "argmin", "tau": 2}, 2000, a), 200),
        "a-argmin-virtual": (local(virtual, frlb_schedule(2 ** 24 + 1, 3),
                                   {"kind": "argmin", "tau": 3}, 2000, a), 10),
        "a-iid-random-q-virtual": (local(virtual, rlb_schedule(2 ** 24 + 1, 2),
                                         {"kind": "iid_subset", "tau": 2}, 2000, a), 100),
        # every trial runs past round 16, where the first degree chunk ends
        # inside a 3-round block, so the next chunk reuses the block's q
        "a-iid-random-q-tau3-virtual": (local(virtual, decay_schedule(2 ** 24 + 1),
                                              {"kind": "iid_subset", "tau": 3}, 2000, a), 60),
        "a-iid-fixed-q-virtual": (local(virtual, frlb_schedule(2 ** 24 + 1, 3),
                                        {"kind": "iid_subset", "tau": 3, "edge_prob": 0.3},
                                        2000, a), 100),
        "a-static-virtual": (local(virtual, rlb_schedule(2 ** 24 + 1, 3),
                                   {"kind": "static", "tau": 3, "extra_degree": 5}, 2000, a),
                             100),
        "a-shift": (local(ds256, decay_schedule(256),
                          {"kind": "correlated_shift"}, 2000, a), 200),
        "a-walk-deterministic": (local(star64, rlb_schedule(64, 4),
                                       {"kind": "degree_walk_deterministic", "tau": 4,
                                        "l": 3, "start_degree": 20}, 2000, a), 100),
        "a-walk-restricted-random": (local(star64, rlb_schedule(64, 4),
                                           {"kind": "degree_walk_restricted", "tau": 4,
                                            "l": 2, "walk_mode": "random"}, 2000, a), 100),
        "a-walk-restricted-dodging": (local(huge,
                                            rlbc_schedule(2 ** 200, 40),
                                            {"kind": "degree_walk_restricted", "tau": 40,
                                             "l": 2 ** 20, "walk_mode": "dodging"},
                                            3000, a), 12),
        "a-walk-deterministic-long": (local(huge, rlbc_schedule(2 ** 200, 40),
                                            {"kind": "degree_walk_deterministic", "tau": 7,
                                             "l": 2 ** 20}, 1500, a), 8),
        "a-walk-beyond-2^53": (local(huge, rlb_schedule(2 ** 200, 4),
                                     {"kind": "degree_walk_deterministic", "tau": 5,
                                      "l": 2 ** 54, "start_degree": 2 ** 60}, 600, a), 5),
        # gap degrees that change every block (cycle length 3 at tau 1, 7 at
        # tau 3) and one that never changes (cycle length 1 at tau 1)
        "a-gap-tau1": (local(gap_star, rlb_schedule(2 ** 10 + 1, 3),
                             {"kind": "gap", "tau": 1}, 2000, a), 40),
        "a-gap-tau1-constant": (local(gap_star, rlb_schedule(2 ** 10 + 1, 1),
                                      {"kind": "gap", "tau": 1}, 3000, a), 40),
        "a-gap-tau3-virtual": (local(virtual, rlb_schedule(2 ** 24 + 1, 7),
                                     {"kind": "gap", "tau": 3}, 3000, a), 20),
        # a restricted dodging walk that crosses the success peak inside a
        # degree chunk, and criterion 10's walk cut to 5,000 rounds
        "a-walk-restricted-dodging-cross": (local(star64, rlb_schedule(64, 4),
                                                  {"kind": "degree_walk_restricted",
                                                   "tau": 4, "l": 2, "start_degree": 20},
                                                  2000, a), 100),
        "a-walk-criterion-10": (local(extreme, rlbc_schedule(2 ** 4885, 1000),
                                      {"kind": "degree_walk_restricted", "tau": 1000,
                                       "l": 22, "walk_mode": "dodging"}, 5000, a), 4),
        # criterion 11's shape: one round per trial on both engines, and
        # star-short's longest tau
        "a-criterion-11": (local(star8, rlb_schedule(8, 3),
                                 {"kind": "iid_subset", "tau": 3}, 1, a), 2000),
        "a-iid-random-q-tau6": (local(star64, rlb_schedule(64, 6),
                                      {"kind": "iid_subset", "tau": 6}, 2000, a), 600),
        # star-short's tau = 3 point, where trials that outlive the rounds
        # stepped one at a time enter the degree chunks mid-block, and
        # criterion 6's shape: a 2 * tau-bar round cap shorter than those rounds
        "a-iid-random-q-tau3": (local(star64, rlb_schedule(64, 3),
                                      {"kind": "iid_subset", "tau": 3}, 2000, a), 600),
        "a-criterion-6": (local(star64, frlb_schedule(64, 2),
                                {"kind": "iid_subset", "tau": 2}, 4, a), 2000),
        # materialized engine, local broadcast
        "m-criterion-11": (local(star8, rlb_schedule(8, 3),
                                 {"kind": "iid_subset", "tau": 3}, 1, m), 2000),
        "m-static": (local(star16, rlb_schedule(16, 4),
                           {"kind": "static", "tau": 4, "edges": [0, 2, 5]}, 300, m), 200),
        "m-iid": (local(star16, rlb_schedule(16, 2),
                        {"kind": "iid_subset", "tau": 2}, 300, m), 200),
        # every node reliably adjacent to a broadcaster must be reached
        "m-iid-all-receivers": (local(replace(ds16, receivers=frozenset(range(18))),
                                      frlb_schedule(16, 2),
                                      {"kind": "iid_subset", "tau": 2}, 2000, m), 60),
        "m-gap": (local(gap_star, rlb_schedule(2 ** 10 + 1, 1),
                        {"kind": "gap", "tau": 1}, 1500, m), 10),
        "m-argmin": (local(star64, frlb_schedule(64, 2),
                           {"kind": "argmin", "tau": 2}, 1000, m), 60),
        "m-shift": (local(ds64, decay_schedule(64),
                          {"kind": "correlated_shift"}, 1000, m), 60),
        "m-walk-deterministic": (local(star64, rlb_schedule(64, 4),
                                       {"kind": "degree_walk_deterministic", "tau": 4,
                                        "l": 3, "start_degree": 20}, 1000, m), 60),
        "m-walk-restricted": (local(star64, rlb_schedule(64, 4),
                                    {"kind": "degree_walk_restricted", "tau": 4,
                                     "l": 2, "walk_mode": "random"}, 1000, m), 60),
        "m-walk-restricted-dodging": (local(gap_star, rlb_schedule(2 ** 10 + 1, 10),
                                            {"kind": "degree_walk_restricted", "tau": 10,
                                             "l": 32, "start_degree": 600}, 1000, m), 20),
        "m-inert-broadcasters": (local(inert, frlb_schedule(4, 2),
                                       {"kind": "iid_subset", "tau": 2, "edge_prob": 0.5},
                                       500, m), 200),
        "m-receiver-broadcasts": (local(duplex, frlb_schedule(4, 2),
                                        {"kind": "static", "tau": 2, "edges": [1]}, 500, m),
                                  200),
        # materialized engine, global broadcast
        "g-static": (glob(chain10, frlb_schedule(10, 4),
                          {"kind": "static", "tau": 4}, 50_000), 10),
        "g-iid": (glob(chain10, frlb_schedule(10, 2),
                       {"kind": "iid_subset", "tau": 2, "edge_prob": 0.5}, 50_000), 10),
        "g-chained-gap": (glob(chain257, frlb_schedule(2 ** 8 + 1, 1),
                               {"kind": "chained_gap", "tau": 1}, 100_000,
                               rgb_reps=4000), 4),
        "g-chained-static": (glob(chain257, frlb_schedule(2 ** 8 + 1, 1),
                                  {"kind": "static", "tau": 1}, 100_000), 3),
        "g-line": (glob(_custom(3, [(0, 1), (1, 2)], []), frlb_schedule(2, 1),
                        {"kind": "static", "tau": 1}, 500, rgb_reps=200), 200),
        "g-budget-exhausted": (glob(_custom(3, [(0, 1)], [(1, 2)]), frlb_schedule(2, 1),
                                    {"kind": "static", "tau": 1}, 10 ** 6, rgb_reps=5), 20),
        # transmitter-window event boundaries: at cycle length 1 relays start
        # on every even round; tiny budgets make expiries and activations
        # share rounds, and most runs stop once no activation is pending
        "g-path-k1": (glob(path8, rlb_schedule(2, 1),
                           {"kind": "static", "tau": 1}, 2000, rgb_reps=3), 200),
        "g-path-k1-reps1": (glob(path8, rlb_schedule(2, 1),
                                 {"kind": "static", "tau": 1}, 2000, rgb_reps=1), 200),
        "g-mesh-small-reps": (glob(mesh, rlb_schedule(4, 2),
                                   {"kind": "iid_subset", "tau": 2, "edge_prob": 0.5},
                                   5000, rgb_reps=2), 200),
        "g-chained-small-reps": (glob(chain10, frlb_schedule(10, 4),
                                      {"kind": "iid_subset", "tau": 4}, 50_000,
                                      rgb_reps=3), 100),
        # chained gap on the benchmark chain with a budget small enough that
        # 13 of the 20 trials stop when every reached node has used it up
        "g-chained-gap-small-reps": (glob(chain257, frlb_schedule(2 ** 8 + 1, 1),
                                          {"kind": "chained_gap", "tau": 1}, 100_000,
                                          rgb_reps=100), 20),
        # chained gap whose phase degree changes every phase (decay's 9-entry
        # cycle at tau 1), and the benign static chain with unreliable edges
        # kept active in several sections
        "g-chained-gap-decay": (glob(chain257, decay_schedule(2 ** 8 + 1),
                                     {"kind": "chained_gap", "tau": 1}, 100_000), 12),
        "g-chained-static-edges": (glob(chain257, frlb_schedule(2 ** 8 + 1, 1),
                                        {"kind": "static", "tau": 1,
                                         "edges": [3, 100, 254, 300, 520, 1100, 1790, 2039]},
                                        100_000), 6),
    }


def golden_digest(config: TrialConfig, trials: int) -> str:
    h = hashlib.sha256()
    for i, res in enumerate(run_trials(config, trials).results):
        h.update(trial_csv_row(i, config, res).encode())
        h.update(repr(res.distribution_changes).encode())
        h.update(repr(sorted(res.first_delivery.items())).encode())
    return h.hexdigest()


GOLDEN = {
    'a-static': '402491f41d07cad2609f8bbc744743f4ede92e2605f9cd03630463edb539e3de',
    'a-iid-random-q': '2482db3753abb89c1fe6f5ba96c59c07d8b7be0afede732d1cc9aced21d80a6c',
    'a-iid-fixed-q': '773355e133f94456fd28737f2750e50e14bf3557f5362dd1e70e77f1efce86e4',
    'a-iid-tau-inf': '31d38524c4140a1fbc4ea43165ab049b056abc44bd521a889d60801debf4247d',
    'a-gap': '8867a78320ecf7a8cc425da60cf194ce366cbe9efdd2404d23ccb5e03d54c5ef',
    'a-gap-virtual': 'dffedd0d110bd94e55a502889272d41712c13bc06ed44175f0042aea0e38fe05',
    'a-argmin': 'e408e533e8250717e5968dc9d34d2b39ce98c1f2115bf09eb0fb396ce6cffda6',
    'a-argmin-virtual': 'f2637e3f1c17d15d8fef433e07851118e44fe247f485a547fe7062bbce3ebcbd',
    'a-iid-random-q-virtual': '3ac2abf5d513412b07700b9f01919ad7b549fe72a7f211104df184931da885f1',
    'a-iid-random-q-tau3-virtual':
        '6e50cab14586d48d99fb940b5a6b7c95419aca5298c8760508e43efb0377218b',
    'a-iid-fixed-q-virtual': '11aa7f1a8fda7649299ad9a7acc507ff9c1400eef407db3f4bbaeb16fc808c88',
    'a-static-virtual': '7ae11f2acdfdff309a09fd522e7c7e4995eadae9686bd65e92ba985f68d3c5d3',
    'a-shift': '0a11bc0825d28e4118c14afe2bc31ff0f9ba23fa03b785422982d154e242c46c',
    'a-walk-deterministic': 'c888601dc6ca99b74aab206053de7f601662e0558c245c1b8ae639507805ca69',
    'a-walk-restricted-random': 'ab562d722c865b20784e8532940eb308550cc8bb04c00c68491bcf54bacf5fb6',
    'a-walk-restricted-dodging': 'bfe80f49af2cbfffd95917712077e84f95df29fc08c2551f0421d132a92a1de8',
    'a-walk-deterministic-long': '5a4af610f8501a2f5e8f38389f5ac34fe25e38ff5c3f6cd81f00746f09cb78b2',
    'a-walk-beyond-2^53': '9f6f82d72ad6100c449d74667bd0f5d8b3b5168336f108b3cf1cef25736edafa',
    'a-gap-tau1': 'a79a45ff08d04200da54387a600629d9615396659f5e47e211eb4b7755105f06',
    'a-gap-tau1-constant': '4ae92a578c7eaacca875b052b23842cf1734234ef1672ea0df38e1ca0f11e1c4',
    'a-gap-tau3-virtual': 'b3418259e935c1a1ac525fbd5331c63f2ae515f81ffa7c8a358aa6a9960c3d93',
    'a-walk-restricted-dodging-cross':
        '86c557695f47497fb99c2780b94909064fb5e6bf40dd9024b6129d0c8d5ca82b',
    'a-walk-criterion-10': '5ba1154e97502bf92736a942541a64344e19c6aa6768d825574bd224b940a26c',
    'a-criterion-11': '24c9645b9951860dfe8ff76e9d7b34044e78d7491d09d3c1e91d59da2b979c77',
    'a-iid-random-q-tau6': '8b19fa7c3a2a7f34ec20d9c7f846563ad2b79961c03885bc2cab24049b694432',
    'a-iid-random-q-tau3': 'eb9fa286a541d31cb22e18b8e926f2b9a29773dfca18a5ae607db0df6c7188c8',
    'a-criterion-6': '0767504355bcdef633a504f3445cd90355c93eec64376c8a8a663e4d58ec213c',
    'm-criterion-11': '25b603bb6e53db67cfeac4dcd8ea73aac8e0be3778fde38f95838f201a42e93e',
    'm-static': '861102ff81559f4105d18b3fd8891440608eae3c4f95dce95448fde1952c1c26',
    'm-iid': '320197b29ed489f30524fbc442814d6d3ec1fa3f3f75776bd8c376265beb86a5',
    'm-iid-all-receivers': '70d5b8f7e8753cdb7b37ec4491a54025ec5b01a6b3e9d358055944b6b7b9e143',
    'm-gap': 'aab66f047e36b874681cd7f79dd6b12b77a243671bd202552629425886fa3cc5',
    'm-argmin': 'dad59d3fc2bd4f6a66c811f158ad4810b9655c4a510e0e6987e9dfd25aa45a6b',
    'm-shift': 'db76df81c1848704e90ba3651395ca902f89976b5c21a8e59e840efb02cce95d',
    'm-walk-deterministic': 'bfffb64970ef8880ff5185933a680d24a7d2254b6061ea748fe5f2a6363ed5d6',
    'm-walk-restricted': '58f4e26bf88cdb6ab095e540984bad5d4a0b5af3fa5bfcd309911e2c2d051c7d',
    'm-walk-restricted-dodging': 'ddb0d26418fd741ff1b6b8679a36c0ed415b7b50c145484e8431611e63e3946e',
    'm-inert-broadcasters': 'cc047dae16bd793239aac8deafce708e7d6c0f0b873b9a26eda81df0af54e545',
    'm-receiver-broadcasts': '7d962bfae89b996ee7367e04f6cbe9038ac7824d778b431cf5af2aa32e0babd8',
    'g-static': 'd617debb5c77629581623dd3ede6120374c358d2afab5814866770bdfa1cb6ab',
    'g-iid': 'cf9458317c7cb33489c5b9aa74ca812f63a2df498c2533362d3d571218a449ea',
    'g-chained-gap': 'cb56887916013c2c83c3ae340143edc82620bf763ea13ab39a0ab33dd6e289c6',
    'g-chained-static': '5a159d2ae43db7a3672bbfa80d08405d3a0a6181782387b523f55031125c685b',
    'g-line': '831919a80f9b7ae7c9d0a1a8843fb034d928b56e0c0e824dccb75c6d22caba09',
    'g-budget-exhausted': 'a506511e50334dae68e6c7c57c8a7e4e3b369dc316ddeabbff44d294316f0b35',
    'g-path-k1': '3490932093b9e7f0076007fde2123280d0e970b2caaa963e45417aeb51c71b64',
    'g-path-k1-reps1': 'af7837341fa1f359e9c91e2d4cc23938c724838e0d0e80315e7f7285f53831c7',
    'g-mesh-small-reps': '0cd5060598c9c02072d7d41c5ca926d2764b0d961d08f3d9ece64bec1389eb06',
    'g-chained-small-reps': 'c1966dedfbed1b40a13e067f56137e3878b5df8caafc92e0011f2910b474d91e',
    'g-chained-gap-small-reps':
        '63be6c8e47ac0781f5bb8a1fa3e3aee6650bd9ce5b0776d27e1a383e368a5eb0',
    'g-chained-gap-decay': '24fd7ccd640b01ea5bda33c7f525c0c9799715ffd640bfeacfdd17a27e53fe22',
    'g-chained-static-edges':
        '81005de5fe81a4dafb6314469a01dda40277e1977ace85f3b6325b436d136aaa',
}

CONFIGS = _configs()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hash(name):
    config, trials = CONFIGS[name]
    assert golden_digest(config, trials) == GOLDEN[name]


def test_every_config_is_pinned():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", ["g-chained-gap-small-reps", "g-budget-exhausted"])
def test_adversary_asked_once_per_round(name, monkeypatch):
    # every round a trial runs enters the adversary and samples it once,
    # the round that ends the trial included
    config, trials = CONFIGS[name]
    calls = []
    bind = engine.make_policy

    def counted(*args):
        policy = bind(*args)
        count = {"pre_round": 0, "sample_edges": 0}
        calls.append(count)
        for method in count:
            def call(*a, _method=method, _real=getattr(policy, method)):
                count[_method] += 1
                return _real(*a)
            setattr(policy, method, call)
        return policy

    monkeypatch.setattr(engine, "make_policy", counted)
    rounds = [res.rounds_executed for res in run_trials(config, trials).results]
    assert [c["pre_round"] for c in calls] == rounds
    assert [c["sample_edges"] for c in calls] == rounds


if __name__ == "__main__":
    for name, (config, trials) in CONFIGS.items():
        print(f"    {name!r}: {golden_digest(config, trials)!r},")
