"""Golden hashes: fixed configs must reproduce their recorded output exactly.

Each config's trials are run in-process and folded into one SHA-256 over,
per trial, the CSV row, the adversary's `distribution_changes` and the
sorted `first_delivery` map.  The configs cover every adversary kind on
each engine that accepts it, both problems on the materialized engine, and
walks whose degrees pass 2^53 (the analytic engine's arbitrary-precision
path), in one of which most trials complete.

A refactor that keeps behaviour keeps every hash.  A change that is meant
to alter the random streams re-records them:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from dataclasses import replace

import pytest

from dualradio import engine
from dualradio.engine import TrialConfig, run_trials, trial_csv_row
from dualradio.gadgets import Gadget, build_gadget, chained_gadgets, double_star, star_gadget
from dualradio.model import DualGraph
from test_engine import custom_gadget
from dualradio.schedules import (decay_schedule, frlb_schedule, rlb_schedule,
                                 rlbc_schedule)


def _custom(n, reliable, unreliable, broadcasters=(), receivers=()):
    return custom_gadget(DualGraph.from_parts(n, reliable, unreliable), broadcasters,
                         receivers, source=0, delta=2, kind="chained")


def _degree_only_star(delta):
    """A star as the analytic engine reads it, labeled as the hashes of the
    configs on it were recorded: broadcaster node 0 and receiver node 1,
    with delta - 2 unreliable arms.  `build_gadget("star", delta)` gives the
    same runs, except that `first_delivery` names its receiver, node delta
    (see `test_pinned_hash_holds_on_built_star`)."""
    return Gadget(kind="star", delta=delta, node_count=2, broadcasters=frozenset({0}),
                  receivers=frozenset({1}), receiver=1, arms=delta - 2,
                  unreliable_count=delta - 2)


def _configs():
    star64 = star_gadget(64, 66)
    star16 = star_gadget(16, 18)
    star8 = star_gadget(8, 10)
    ds16 = double_star(16)
    ds64 = double_star(64)
    ds256 = double_star(256)
    gap_star = star_gadget(2 ** 10 + 1, 2 ** 10 + 3)
    gap_star_big = star_gadget(2 ** 12 + 1, 2 ** 12 + 3)
    virtual = _degree_only_star(2 ** 24 + 1)
    huge = _degree_only_star(2 ** 200)
    extreme = _degree_only_star(2 ** 4885)
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
        # no trial of the four walks above completes, so their hashes read no
        # random draw; in these two most trials complete: criterion 10's walk
        # given 600,000 rounds, and a random walk whose degrees of 2^53 and
        # more pass the peak of the cycle's success, so the
        # arbitrary-precision success test decides them
        "a-walk-criterion-10-completes": (local(extreme, rlbc_schedule(2 ** 4885, 1000),
                                                {"kind": "degree_walk_restricted",
                                                 "tau": 1000, "l": 22,
                                                 "walk_mode": "dodging"}, 600_000, a), 12),
        "a-walk-beyond-2^53-completes": (local(huge, rlb_schedule(2 ** 200, 200),
                                               {"kind": "degree_walk_restricted", "tau": 1,
                                                "l": 2 ** 57, "walk_mode": "random",
                                                "start_degree": 2 ** 62}, 600, a), 40),
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
        # rlb's small probabilities on a 16-broadcaster star leave rounds in
        # which no coin shows, and some of those idle stretches cross the
        # start of a 3-round block, which draws a new q
        "m-iid-tau3-idle": (local(star16, rlb_schedule(2 ** 10 + 1, 3),
                                  {"kind": "iid_subset", "tau": 3}, 2000, m), 60),
        # a star whose 4,096 arms all neighbor the waiting receiver, so every
        # arm is a counted candidate in every round
        "m-iid-star-4097": (local(gap_star_big, rlb_schedule(2 ** 12 + 1, 2),
                                  {"kind": "iid_subset", "tau": 2}, 2000, m), 10),
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
        # chained gap on a chain four times the benchmark's, its full budget
        "g-chained-gap-1025": (glob(chained_gadgets(2 ** 10 + 1, 24),
                                    frlb_schedule(2 ** 10 + 1, 1),
                                    {"kind": "chained_gap", "tau": 1}, 1_000_000), 3),
        # the benign chain sixteen times the benchmark's, its full budget
        "g-chained-static-4097": (glob(chained_gadgets(2 ** 12 + 1, 24),
                                       frlb_schedule(2 ** 12 + 1, 1),
                                       {"kind": "static", "tau": 1}, 1_000_000), 2),
    }


def golden_digest(config: TrialConfig, trials: int, relabel: dict | None = None) -> str:
    """The config's hash; `relabel` renames nodes in `first_delivery`."""
    relabel = relabel or {}
    h = hashlib.sha256()

    def digest(i, res):
        h.update(trial_csv_row(i, config, res).encode())
        h.update(repr(res.distribution_changes).encode())
        first = {relabel.get(node, node): r for node, r in res.first_delivery.items()}
        h.update(repr(sorted(first.items())).encode())

    run_trials(config, trials, digest)
    return h.hexdigest()


GOLDEN = {
    'a-static': '2105e2a9094cb48fa941a81e5325cd994f4443b7b17aaec154617e0d35f47d78',
    'a-iid-random-q': 'c5cce978af37f4e35fcf6ce69f7af8843b544269b5ae2bb43e5fda0d2df6f8ce',
    'a-iid-fixed-q': 'bba312400cbce69b2ea76fb782b4bc77012ba09c9c41af1561a805b2fb9782be',
    'a-iid-tau-inf': '4cd77f48c1963d3b9f82078108a797ad7586d66680a450d6ba301652c64150ee',
    'a-gap': '3bc1e3a6a33ad53f262ab3ba8c92bb278fb80edb3016ef3fc1d9bba95bf95202',
    'a-gap-virtual': '0dd0f0b379d4fa65575453f0327819a0519805e094349a8c072c7f9d25009855',
    'a-argmin': '50467b30162d83a6b73f2a084d4b11ef1014b062cfd5ff600f0bbe51c094757c',
    'a-argmin-virtual': '175f74a35e6107398d07fc227d2ba82df689290892e5368676b0662ebd3693aa',
    'a-iid-random-q-virtual': 'e684b1bb91b261bb982fe66891af0e149ba8f1a068b7da0a3aff66187f349e7a',
    'a-iid-random-q-tau3-virtual':
        'd5ffcad93d88f719e5eaa6056229a897e310559446bfe869ebbdc8160efcf89a',
    'a-iid-fixed-q-virtual': '126cf64e33baa83a7128ee0fa02be4d05738b6d572e0c2f21eb8f73eb1eaaf85',
    'a-static-virtual': '162ed4a6d3d846feec03d45e8987a6f2c1c9c6a89923f51c5a4419542526ef2c',
    'a-shift': 'dfd68bb7fcf6bdb3316d61379c967e5e0d2d2e9e5f91d94182f1580b3827c241',
    'a-walk-deterministic': '15f53f4c2d52a3937d965fde332305317b4e9b6461e6dde2a02f50c3cf6dc8e2',
    'a-walk-restricted-random': '02a6305ba77eeff941367925ee9530a8056d0693033e627a38d7ca98c9a4ac46',
    'a-walk-restricted-dodging': 'bfe80f49af2cbfffd95917712077e84f95df29fc08c2551f0421d132a92a1de8',
    'a-walk-deterministic-long': '5a4af610f8501a2f5e8f38389f5ac34fe25e38ff5c3f6cd81f00746f09cb78b2',
    'a-walk-beyond-2^53': '9f6f82d72ad6100c449d74667bd0f5d8b3b5168336f108b3cf1cef25736edafa',
    'a-gap-tau1': '531616ee3d8b2675485e628a46ac5f2c227a83a3b84e508f30b0134fec787aec',
    'a-gap-tau1-constant': 'e4be6e64cf3fad4485e86cca988041f4ad3dfd43cfbcd90ea704cc9c17d62617',
    'a-gap-tau3-virtual': '7b97250ca35e038903c2ff2348c6bff6aeec026d1c88f5c7f501a1c0e96d3047',
    'a-walk-restricted-dodging-cross':
        'e2d293f0592c00f061b522ae5589fdcce798d3377cfc465c938a94a698e23748',
    'a-walk-criterion-10': '5ba1154e97502bf92736a942541a64344e19c6aa6768d825574bd224b940a26c',
    'a-walk-criterion-10-completes':
        '608286d026aa769192bf64129a905766e3aa46c7c8d9ebab387d374df832a6a6',
    'a-walk-beyond-2^53-completes':
        'd1c7dce858a0abb9d132e06467111fe0b475c73431419b3c30a03760c0713388',
    'a-criterion-11': '82445fd24a787162475c16145e9764a045b3c72bbb75d70054d3fdc64b396d40',
    'a-iid-random-q-tau6': 'e6f06db0f21931d439bd487c6057bf107b069a576b4fb663161541ddea4fb809',
    'a-iid-random-q-tau3': '83ac5f8e508aade0ce7f29bfba1004feb5631f319787647f4515f8dac80ce77c',
    'a-criterion-6': '21b50ffdeebc92adafaaf374c21ac3a3287d8010d486a4410362ffed23d012f3',
    'm-criterion-11': 'db3258ad016e519d3ab03fb8617bba5af0fadb4175dbbf2ba49c9a5c175fc428',
    'm-static': 'f33a546a5135db0540a13b830ad948cfa72db30c2571e502ce160667b7f6abfe',
    'm-iid': '120ed10008b63f7c49d382e2ba2e26a923db5fbfc6848813864ced2fed1c8797',
    'm-iid-all-receivers': 'acf6de2664b831f6277f1760627780effc1391f0842753045a262d4e5085344c',
    'm-gap': 'ca8afa1224639c0556f0ea6be4051dcdcc64b428e8c29350eaa7155e3e9996f8',
    'm-argmin': '95afab790fa9fe2ea721ef8a7269aeccefaa4627875a3c3cc8164a23b506effc',
    'm-shift': '3308e45dd47562fb0300d55e1c1b35734898476ac704b78f26d6773cf1fa4d5b',
    'm-walk-deterministic': '66388db7e1501261f87ca1e0b919f710e76c82c130fb0f9f426cd87dbf554834',
    'm-walk-restricted': '6424455b1e001f78e6d613c8f11df565f079e0749f5cb58156f023e92894ba5e',
    'm-walk-restricted-dodging':
        '5214b7b80ca72e7e993ed14283850dc4a64eb376f25c1dc1ca05dc28964fb540',
    'm-iid-tau3-idle': '338113036f4bbc8116f70b3d795b5f25bb98fe315bd497c1b7dba7aae9a4efcc',
    'm-iid-star-4097': '40a158aa09804b8241080f275260bc8fe32e960148cd1d9b8f81ddafde0bd5aa',
    'm-inert-broadcasters': '621064024766d6db5256e810135dc846dff27aeb18bc204b2245997520f06340',
    'm-receiver-broadcasts': '3e48a8dc8a9c0486108e7db994747585e3e40f1ce2bffd22f8593259264bc802',
    'g-static': 'c0240b62ea6a7d624c54c3663369ff4b38c507f8a57098e49632e8572d51804e',
    'g-iid': '82eec96c25af65e35cd70089cad9737050de1bf148606d4ee14ad4a5a25da0e3',
    'g-chained-gap': 'b8a90509f42748df37dd39148d6591dbb3f95b3d4920031682cdebfbdbbb63ab',
    'g-chained-static': '70d0171a79be1b8d64cb96a4d462092c17987e4ee2384d9f3f8e2f8be97fd2e2',
    'g-line': '04974412043d7f9c01f216bc4bc47565717936e24eda40c3ec031f7981fe2d94',
    'g-budget-exhausted': '0c6cf811cfd111cdb2faadb569c9e15bc80cfd087a2814695c012fd98bce9e7f',
    'g-path-k1': '0b38c4a7475e8b16ca3f37d1a771b9b7547a3fe7b1045fcafd82a4cc0c1ece6b',
    'g-path-k1-reps1': 'b87ea13debd008465552cbd05a5c29aa2c4917d88804d30c65f598ab801069a1',
    'g-mesh-small-reps': '9460335ae093d8318472a896e92a8f27cde1b0c52800109d99b562d3c5bba579',
    'g-chained-small-reps': 'bf56e24ef256ea7b252df11ba7928f592296ec17bf29967710f0a9691a9aa9cd',
    'g-chained-gap-small-reps': '42ab1ffc14ea59d3acb8c1b0ca432b612ada4eda4b68e19c6dc42caf808fc0ca',
    'g-chained-gap-decay': '41b5113acf32f893275b4c006edd0e8572537e490085ab3ad91c03184d572623',
    'g-chained-static-edges': '7e496c4659c9c1c0b61cf74aac55b28e02c2b9bbfb16e5c4912435bb8a51a38d',
    'g-chained-gap-1025': '3d1165601b0f5214170b4cc03c5df5aee62ad8cf9c31f33859cce4b1366defe8',
    'g-chained-static-4097': 'cb15857f83b56e7e6f9064cbadcefbed1d19b98ab2fa455f71730d89be81ef66',
}

CONFIGS = _configs()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hash(name):
    config, trials = CONFIGS[name]
    assert golden_digest(config, trials) == GOLDEN[name]


def test_every_config_is_pinned():
    assert sorted(GOLDEN) == sorted(CONFIGS)


DEGREE_ONLY = sorted(name for name, (config, _) in CONFIGS.items()
                     if config.gadget.kind == "star" and config.gadget.receiver == 1)


def test_degree_only_configs():
    assert len(DEGREE_ONLY) == 13


@pytest.mark.parametrize("name", DEGREE_ONLY)
def test_pinned_hash_holds_on_built_star(name):
    # each hash recorded on a degree-only star holds on the star that
    # build_gadget makes, once its receiver, node delta, is named node 1
    config, trials = CONFIGS[name]
    delta = config.gadget.delta
    built = replace(config, gadget=build_gadget("star", delta))
    assert golden_digest(built, trials, relabel={delta: 1}) == GOLDEN[name]


@pytest.mark.parametrize("name", ["g-chained-gap-small-reps", "g-budget-exhausted",
                                  "m-iid-tau3-idle"])
def test_adversary_asked_once_per_round(name, monkeypatch):
    # every round a trial runs samples the adversary once, the round that
    # ends the trial included; the adversary is entered in round 1, at the
    # start of each tau-block that draws anew (iid_subset's 3-round blocks;
    # static has one block, and a period-1 chained_gap table never names a
    # round) and in each round after a delivery, and in no other round
    config, trials = CONFIGS[name]
    block = 3 if name == "m-iid-tau3-idle" else None
    calls = []
    bind = engine.make_policy

    def recorded(*args):
        policy = bind(*args)
        rounds = {"pre_round": [], "sample_edges": []}
        calls.append(rounds)
        for method in rounds:
            def call(r, *a, _method=method, _real=getattr(policy, method)):
                rounds[_method].append(r)
                return _real(r, *a)
            setattr(policy, method, call)
        return policy

    monkeypatch.setattr(engine, "make_policy", recorded)
    results = []
    run_trials(config, trials, lambda t, res: results.append(res))
    assert len(calls) == len(results)
    for res, rounds in zip(results, calls):
        last = res.rounds_executed
        assert rounds["sample_edges"] == list(range(1, last + 1))
        entered = {1, *range(1, last + 1, block or last),
                   *(r + 1 for r in res.first_delivery.values())}
        assert rounds["pre_round"] == sorted(r for r in entered if r <= last)


if __name__ == "__main__":
    for name, (config, trials) in CONFIGS.items():
        print(f"    {name!r}: {golden_digest(config, trials)!r},")
