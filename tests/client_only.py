"""A Cowbird client with no offload engine, for tests that play the
engine by hand.

Every registered system comes with its engine (see
``repro.experiments.common.build_microbench``); this builds the same
testbed, pool region and client, and stops before any engine exists.
"""

from repro.baselines.backends import CowbirdBackend
from repro.cluster import MicrobenchDeployment
from repro.cowbird.api import CowbirdClient
from repro.experiments.common import COMPUTE_CORES, COMPUTE_SMT
from repro.testbed import Testbed


def client_only(threads=1, remote_bytes=1 << 20, cowbird_config=None):
    """A deployment whose ``instances`` nothing serves."""
    bed = Testbed()
    compute = bed.add_host("compute", cpu_cores=COMPUTE_CORES, smt=COMPUTE_SMT)
    pool_host, pool = bed.add_pool("pool")
    region = pool.allocate_region(remote_bytes, name="client-only")
    client = CowbirdClient(compute, cowbird_config)
    client.register_remote_region(region)
    instances = [client.create_instance() for _ in range(threads)]
    return MicrobenchDeployment(
        system="client-only", bed=bed, compute=compute,
        backends=[CowbirdBackend(instance) for instance in instances],
        pool=pool, pool_hosts={pool.node: pool_host}, region=region,
    )
