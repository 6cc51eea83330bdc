"""Worst cases, each answered within a bound of CPU time.

Each input below once ended in exit 3, after seconds of CPU, on the path
searches' expansion cap. The searches test their candidates for a
completion now and have no cap, so each must answer, and within a bound
(`time.process_time`) that leaves room for a slower machine: under 2 s for
the whole file, where they take about 0.1 s on a 2-core x86-64 with the
pure kernel. Drawing the inputs is not timed.
"""
import random
import time

from confounders.adjust import is_sufficient
from confounders.classify import classify_d2, classify_variable
from confounders.fuzz import random_dag


def draw_d2_dag():
    """Trial 433 of a seeded loop of 3-16-node DAGs: 16 nodes, 89 edges."""
    rng = random.Random(7)
    for _ in range(433):
        dag = random_dag(rng, rng.randint(3, 16), rng.choice((0.15, 0.25, 0.35, 0.5, 0.7)))
        for _ in range(3):
            rng.sample(dag.covariate_pool, rng.randint(0, len(dag.covariate_pool)))
    return random_dag(rng, rng.randint(3, 16), rng.choice((0.15, 0.25, 0.35, 0.5, 0.7)))


def draw_sufficiency_input():
    """Trial 300 of a seeded loop of 24-64-node DAGs, five sets each: a
    48-node DAG and its 17-member set."""
    rng = random.Random(21)
    for _ in range(301):
        dag = random_dag(rng, rng.choice((24, 32, 40, 48, 64)), rng.choice((0.05, 0.1, 0.15, 0.25)))
        pool = dag.covariate_pool
        sets = [rng.sample(pool, rng.randint(0, len(pool))) for _ in range(5)]
    return dag, sets[1]


def cpu(call):
    start = time.process_time()
    answer = call()
    return answer, time.process_time() - start


def test_d2_witness_on_a_dense_16_node_dag():
    dag = draw_d2_dag()
    assert (len(dag.nodes), len(dag.edges), dag.exposure, dag.outcome) == (16, 89, "V8", "V14")
    report, spent = cpu(lambda: classify_variable(dag, "V1"))
    assert str(report.witnesses["D2"]) == "V8 <- V1 <- V0 -> V10 <- V11 <- V13 -> V12 -> V14"
    assert spent < 0.5


def test_open_backdoor_witness_of_a_17_member_set_on_a_48_node_dag():
    dag, members = draw_sufficiency_input()
    assert (len(dag.nodes), len(members)) == (48, 17)
    verdict, spent = cpu(lambda: is_sufficient(dag, members))
    assert not verdict.sufficient
    assert str(verdict.open_backdoor_witness) == "V10 <- V38 -> V2 <- V46 -> V0 -> V25"
    assert spent < 0.5


def test_d2_on_every_covariate_of_sparse_48_node_dags():
    rng = random.Random(48)
    dags = [random_dag(rng, 48, 0.1) for _ in range(20)]

    def answer_all():
        return [classify_d2(dag, c) for dag in dags for c in dag.covariate_pool]

    answers, spent = cpu(answer_all)
    assert len(answers) == 650
    assert sum(verdict for verdict, _ in answers) == 388
    for verdict, path in answers:
        assert verdict == (path is not None)
    assert spent < 1.0
