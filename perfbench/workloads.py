"""The benchmark's four workloads: set-up, one unit of work, output checks.

Each workload runs with a calm network, no chaos and the seed it is given.

- ``assess-plain``: the materialized, sequential assessment of 2,000 bots
  (crawl, traceability, code analysis, honeypot) without durability.  The
  crawl dominates, so DOM, virtual HTTP and scraper changes show here and
  journal/spill/pool changes should not.
- ``assess-durable``: the same population streamed in 256-bot chunks with
  checkpoint and write-ahead journal (fsync per record).  The only
  workload through ``ecosystem.stream``, ``core.spill`` and
  ``core.storage``; its comparable result must equal assess-plain's byte
  for byte.
- ``serve-mixed``: the vetting service over a paper-scale directory
  (20,915 bots), driven in a closed loop by two interleaved virtual
  clients: ~40k requests mixing vets (about half verdict-cache hits),
  audits and update notifications.  No crawl, no journal.
- ``assess-sharded``: assess-plain's population over two shards in two
  worker processes, the only workload through ``core.parallel`` and
  ``core.sharding``.

``bots assessed`` is the population for the assess-* workloads and the
verdicts returned for serve-mixed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict
from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
from repro.serving import LoadScript, ServicePolicy, ServingHarness, VettingService
from repro.sites.botwebsites import BotWebsiteBuilder
from repro.web.network import VirtualClock, VirtualInternet

STAGES = ("crawl", "traceability", "code", "honeypot")


@dataclass(frozen=True)
class Scale:
    bots: int = 2_000
    chunk_size: int = 256
    directory: int = 20_915
    waves: int = 800


FULL = Scale()
#: A few dozen bots and a few hundred requests, for the smoke tests.
TINY = Scale(bots=40, chunk_size=16, directory=300, waves=6)


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class AssessWorkload:
    """One :class:`AssessmentPipeline` run over a seeded population."""

    #: Vet latency on an assessment: collecting one bot's store listing,
    #: the crawl unit that dominates the run.  It runs in the parent
    #: process in every mode, sharded included.
    latency_target = ("repro.scraper.topgg", "TopGGScraper", "scrape_bot")

    def __init__(self, **overrides) -> None:
        self.overrides = overrides

    def setup(self, seed: int, scale: Scale, workdir: Path):
        config = PipelineConfig(seed=seed).scaled(scale.bots)
        overrides = dict(self.overrides)
        if overrides.pop("durable", False):
            workdir.mkdir(parents=True, exist_ok=True)
            overrides.update(
                stream=True,
                chunk_size=scale.chunk_size,
                checkpoint_path=str(workdir / "checkpoint.json"),
                journal_path=str(workdir / "journal.wal"),
            )
        return AssessmentPipeline(replace(config, **overrides))

    def is_vet(self, pipeline, args: tuple) -> bool:
        return True

    def run(self, pipeline):
        return pipeline.run()

    def check(self, pipeline, result, workdir: Path) -> dict:
        """Accounting and stage status per stage; the comparable digest."""
        active = result.crawl.with_valid_permissions()
        populations = {
            "crawl": pipeline.config.n_bots,
            "traceability": len(active),
            "code": sum(1 for bot in active if bot.github_url),
            "honeypot": pipeline.config.honeypot_sample_size,
        }
        problems = []
        failed = 0
        for stage in STAGES:
            status = result.stage_status.get(stage)
            if status != "completed":
                problems.append(f"{stage} ended {status!r}")
            entry = result.metrics.stage(stage)
            if entry is None:
                problems.append(f"{stage} has no metrics")
                continue
            failed += entry.bots_skipped + entry.bots_quarantined
            accounted = entry.bots_processed + entry.bots_skipped + entry.bots_quarantined
            if accounted != populations[stage]:
                problems.append(f"{stage} accounts for {accounted} of {populations[stage]} bots")
        canonical = json.dumps(comparable_result(result_to_dict(result)), sort_keys=True)
        journal = sorted(workdir.glob("journal.wal*")) if workdir.is_dir() else []
        records = sorted(len(line) for path in journal for line in path.read_bytes().splitlines())
        spill = workdir / "checkpoint.json.spill"
        return {
            "problems": problems,
            "attempted": pipeline.config.n_bots,
            "failed": failed,
            "bots": pipeline.config.n_bots,
            "requests": 0,
            "digest": hashlib.sha256(canonical.encode()).hexdigest(),
            "layers": {
                "core.journal.bytes": sum(path.stat().st_size for path in journal),
                "core.journal.record_bytes_p50": records[len(records) // 2] if records else 0,
                "core.spill.bytes": directory_bytes(spill) if spill.is_dir() else 0,
                "core.storage.artifact_mib": (directory_bytes(workdir) if workdir.is_dir() else 0) / 2**20,
                "serving.cache.hit_ratio": 0.0,
                "serving.admission.shed": 0,
            },
        }


@dataclass
class _Service:
    service: VettingService
    harness: ServingHarness
    script: LoadScript


class ServeWorkload:
    """The vetting service under a scripted closed-loop request mix."""

    #: Vet latency on the service: a client's ``GET /vet/{bot}`` call.
    latency_target = ("repro.web.client", "HttpClient", "get")

    def setup(self, seed: int, scale: Scale, workdir: Path) -> _Service:
        ecosystem = generate_ecosystem(EcosystemConfig(n_bots=scale.directory, seed=seed))
        internet = VirtualInternet(VirtualClock(), seed=seed)
        BotWebsiteBuilder(ecosystem).register(internet)
        service = VettingService(internet, ecosystem.bots, policy=ServicePolicy(), seed=seed, workers=0)
        for index in range(3):
            service.register_guild(f"community-{index}", [bot.name for bot in ecosystem.bots[index * 5 : index * 5 + 5]])
        script = LoadScript(
            waves=scale.waves,
            requests_per_wave=25,
            clients=2,
            repeat_fraction=0.6,
            audit_every=10,
            update_every=15,
        )
        return _Service(service, ServingHarness(internet, service, seed=seed), script)

    def is_vet(self, state: _Service, args: tuple) -> bool:
        """Whether an ``HttpClient.get`` call is a client's ``GET /vet/{bot}``."""
        return str(args[1]).startswith(f"https://{state.service.hostname}/vet/")

    def run(self, state: _Service):
        return state.harness.run(state.script)

    def check(self, state: _Service, report, workdir: Path) -> dict:
        state.service.shutdown()
        problems = []
        if not report.contract_ok:
            problems.append("serving contract violated")
        if report.unexplained_5xx:
            problems.append(f"{report.unexplained_5xx} unexplained 5xx")
        if report.service_shed:
            problems.append(f"{report.service_shed} requests shed")
        cache = state.service.cache
        lookups = cache.hits + cache.stale_hits + cache.misses
        return {
            "problems": problems,
            "attempted": report.requests_sent,
            "failed": report.requests_sent - report.status_counts.get(200, 0),
            "bots": report.verdicts,
            "requests": report.requests_sent,
            "digest": hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest(),
            "layers": {
                "core.journal.bytes": 0,
                "core.journal.record_bytes_p50": 0,
                "core.spill.bytes": 0,
                "core.storage.artifact_mib": 0.0,
                "serving.cache.hit_ratio": (cache.hits + cache.stale_hits) / lookups if lookups else 0.0,
                "serving.admission.shed": report.service_shed,
            },
        }


WORKLOADS = {
    "assess-plain": AssessWorkload(),
    "assess-durable": AssessWorkload(durable=True),
    "serve-mixed": ServeWorkload(),
    "assess-sharded": AssessWorkload(shards=2, parallel=True),
}

