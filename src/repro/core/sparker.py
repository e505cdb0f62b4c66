"""The end-to-end SparkER facade (Figure 3 of the paper).

``profiles → Blocker → candidate pairs → Entity Matcher → matching pairs →
Entity Clusterer → output entities``.  Since the stage-graph redesign,
:class:`SparkER` is a thin compatibility wrapper over the canonical pipeline
spec (:meth:`SparkER.canonical_spec`): it builds a
:class:`repro.pipeline.Pipeline` from the spec, runs it, and re-packages the
artifacts into the legacy :class:`SparkERResult` shape — bit-for-bit
identical to what the hard-wired facade produced.  New code should use
``repro.pipeline`` directly; this class exists so existing callers (and the
paper's fixed wiring) keep working unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.clustering.base import EntityCluster, clusters_to_pairs
from repro.core.blocker import BlockerReport
from repro.core.config import SparkERConfig
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.engine.context import EngineContext
from repro.evaluation.report import PipelineReport
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.matching.matcher import Matcher, MatchingRule
from repro.matching.similarity_graph import SimilarityGraph
from repro.pipeline import Pipeline, PipelineResult
from repro.utils.timers import StageTimings

# Pipeline stage label → legacy report name of the hard-wired facade.
_BLOCKER_LABELS = (
    "loose_schema",
    "token_blocking",
    "block_purging",
    "block_filtering",
    "meta_blocking",
)
_LEGACY_STAGE_NAMES = {
    **{label: f"blocker.{label}" for label in _BLOCKER_LABELS},
    "matching": "matcher",
    "clustering": "clusterer",
}
# Stage labels whose seconds roll up into the legacy three-bucket timings.
_TIMING_BUCKETS = {
    **{label: "blocker" for label in _BLOCKER_LABELS},
    "block_comparisons": "blocker",
    "matching": "matcher",
    "clustering": "clusterer",
    "entity_generation": "clusterer",
}


@dataclass
class SparkERResult:
    """All outputs of one end-to-end run."""

    blocker_report: BlockerReport
    candidate_pairs: set[tuple[int, int]]
    similarity_graph: SimilarityGraph
    clusters: list[EntityCluster]
    entities: list[dict[str, object]]
    report: PipelineReport = field(default_factory=PipelineReport)
    timings: StageTimings = field(default_factory=StageTimings)
    engine_metrics: dict[str, object] = field(default_factory=dict)
    pipeline_result: PipelineResult | None = None

    @property
    def matched_pairs(self) -> set[tuple[int, int]]:
        """The pairs the matcher labeled as matches."""
        return self.similarity_graph.pairs()

    @property
    def resolved_pairs(self) -> set[tuple[int, int]]:
        """The pairs asserted by the final clusters (after transitive closure)."""
        return clusters_to_pairs(self.clusters)

    def summary(self) -> dict[str, object]:
        """Headline numbers of the run, engine metrics included when present."""
        summary: dict[str, object] = {
            "candidate_pairs": len(self.candidate_pairs),
            "matched_pairs": len(self.matched_pairs),
            "clusters": len(self.clusters),
            "entities": len(self.entities),
        }
        if self.engine_metrics:
            summary["engine"] = dict(self.engine_metrics)
        return summary


class SparkER:
    """The full entity-resolution pipeline (compatibility facade).

    Parameters
    ----------
    config:
        The pipeline configuration (defaults to the unsupervised defaults).
    use_engine:
        When True an :class:`EngineContext` is created with
        ``config.parallelism`` partitions and the distributed code paths are
        used for blocking, meta-blocking and clustering.
    executor:
        Executor spec forwarded to the :class:`EngineContext` (``"serial"``,
        ``"process"``, ``"process:4"`` or an
        :class:`~repro.engine.executors.Executor` instance); only meaningful
        with ``use_engine=True``.  ``None`` consults the
        ``REPRO_ENGINE_EXECUTOR`` environment variable.
    fault_policy:
        Task recovery contract for the process executor (a
        :class:`~repro.engine.faults.FaultPolicy`, spec string or dict, e.g.
        ``"retries=2,timeout=30"``); ``None`` consults
        ``REPRO_FAULT_POLICY``.  Only meaningful with an executor spec
        string — pass the policy to the executor's constructor when
        supplying an instance.
    block_store:
        How shuffle block payloads travel between map and reduce tasks (a
        :class:`~repro.engine.shuffle.BlockStore` instance or a spec string:
        ``"driver"``, ``"shared-memory"``, ``"spill"``); ``None`` consults
        ``REPRO_BLOCK_STORE``.  Only meaningful with ``use_engine=True``.
    partitioning:
        Optional user-supplied attribute partitioning (supervised mode).
    rules / labeled_pairs / matcher:
        Forwarded to the matching stage through the pipeline extras.
    """

    def __init__(
        self,
        config: SparkERConfig | None = None,
        *,
        use_engine: bool = False,
        executor: object | None = None,
        buffer_backend: str | None = None,
        tmp_dir: str | None = None,
        fault_policy: object | None = None,
        block_store: object | None = None,
        partitioning: AttributePartitioning | None = None,
        rules: Sequence[MatchingRule] | None = None,
        labeled_pairs: Sequence[tuple[int, int, bool]] | None = None,
        matcher: Matcher | None = None,
    ) -> None:
        self.config = config or SparkERConfig.unsupervised_default()
        self.config.validate()
        self.engine = (
            EngineContext(
                default_parallelism=self.config.parallelism,
                executor=executor,  # type: ignore[arg-type]
                fault_policy=fault_policy,
                block_store=block_store,  # type: ignore[arg-type]
                tmp_dir=tmp_dir,
            )
            if use_engine
            else None
        )
        # Remember the executor *spec* for provenance: resolved specs must
        # reproduce an engine-backed run as engine-backed.
        if isinstance(executor, str):
            self._executor_spec: str | None = executor
        elif self.engine is not None:
            self._executor_spec = self.engine.executor.name
        else:
            self._executor_spec = None
        # Same provenance treatment for the fault policy: a resolved spec
        # must rebuild the same recovery behaviour.
        if isinstance(fault_policy, (str, dict)):
            self._fault_policy_spec: "str | dict | None" = fault_policy
        elif fault_policy is not None:
            spec_of = getattr(fault_policy, "spec", None)
            self._fault_policy_spec = spec_of() if callable(spec_of) else None
        else:
            self._fault_policy_spec = None
        # And for the block store: a resolved spec of a peer-to-peer shuffle
        # run must rebuild the same block exchange.
        if isinstance(block_store, str):
            self._block_store_spec: str | None = block_store
        elif self.engine is not None and block_store is not None:
            self._block_store_spec = self.engine.block_store.spec()
        else:
            self._block_store_spec = None
        self.buffer_backend = buffer_backend
        self.tmp_dir = tmp_dir
        self.partitioning = partitioning
        self.rules = rules
        self.labeled_pairs = labeled_pairs
        self.custom_matcher = matcher

    # -------------------------------------------------------------- the spec
    @classmethod
    def canonical_spec(
        cls,
        config: SparkERConfig | None = None,
        *,
        use_engine: bool = False,
        executor: str | None = None,
        buffer_backend: str | None = None,
        tmp_dir: str | None = None,
        fault_policy: "str | dict | None" = None,
        block_store: str | None = None,
    ) -> dict[str, object]:
        """The declarative stage-graph spec equivalent to this facade.

        ``Pipeline.from_spec(SparkER.canonical_spec(config))`` reproduces
        ``SparkER(config).run(...)`` bit for bit.  The spec is plain data
        (JSON-serialisable), so it can be persisted, diffed and edited.
        """
        config = config or SparkERConfig.unsupervised_default()
        config.validate()
        blocker = config.blocker
        stages: list[dict[str, object]] = []
        if blocker.use_loose_schema:
            stages.append(
                {
                    "stage": "loose_schema",
                    "params": {"threshold": blocker.attribute_threshold},
                }
            )
        stages.append(
            {
                "stage": "token_blocking",
                "params": {
                    "min_token_length": blocker.min_token_length,
                    "remove_stopwords": blocker.remove_stopwords,
                    "use_entropy": blocker.use_entropy,
                },
                "outputs": {"blocks": "raw_blocks"},
            }
        )
        stages.append(
            {
                "stage": "block_purging",
                "params": {"max_profile_fraction": blocker.purge_factor},
                "inputs": {"blocks": "raw_blocks"},
                "outputs": {"blocks": "purged_blocks"},
            }
        )
        stages.append(
            {
                "stage": "block_filtering",
                "params": {"ratio": blocker.filter_ratio},
                "inputs": {"blocks": "purged_blocks"},
                "outputs": {"blocks": "filtered_blocks"},
            }
        )
        if blocker.use_meta_blocking:
            stages.append(
                {
                    "stage": "meta_blocking",
                    "params": {
                        "weighting": blocker.weighting_scheme,
                        "pruning": blocker.pruning_strategy,
                        "use_entropy": blocker.use_entropy,
                    },
                    "inputs": {"blocks": "filtered_blocks"},
                }
            )
        else:
            stages.append(
                {"stage": "block_comparisons", "inputs": {"blocks": "filtered_blocks"}}
            )
        matcher = config.matcher
        stages.append(
            {
                "stage": "matching",
                "params": {
                    "mode": matcher.mode,
                    "similarity": matcher.similarity,
                    "threshold": matcher.threshold,
                    "classifier_epochs": matcher.classifier_epochs,
                    "decision_threshold": matcher.decision_threshold,
                },
            }
        )
        clusterer = config.clusterer
        stages.append(
            {
                "stage": "clustering",
                "params": {
                    "algorithm": clusterer.algorithm,
                    "min_score": clusterer.min_score,
                },
            }
        )
        stages.append({"stage": "entity_generation"})
        engine_section: dict[str, object] = {
            "enabled": use_engine,
            "parallelism": config.parallelism,
            "executor": executor,
        }
        if buffer_backend is not None:
            engine_section["buffer_backend"] = buffer_backend
        if tmp_dir is not None:
            engine_section["tmp_dir"] = tmp_dir
        if fault_policy is not None:
            engine_section["fault_policy"] = fault_policy
        if block_store is not None:
            engine_section["block_store"] = block_store
        return {
            "name": "sparker",
            "engine": engine_section,
            "stages": stages,
        }

    def build_pipeline(self) -> Pipeline:
        """The canonical pipeline, wired to this facade's engine context."""
        spec = self.canonical_spec(
            self.config,
            use_engine=self.engine is not None,
            executor=self._executor_spec,
            buffer_backend=self.buffer_backend,
            tmp_dir=self.tmp_dir,
            fault_policy=self._fault_policy_spec,
            block_store=self._block_store_spec,
        )
        return Pipeline.from_spec(spec, engine=self.engine)

    # ------------------------------------------------------------------ public
    def run(
        self,
        profiles: ProfileCollection,
        ground_truth: GroundTruth | None = None,
    ) -> SparkERResult:
        """Run blocker → matcher → clusterer and return every artefact."""
        pipeline = self.build_pipeline()
        artifacts: dict[str, object] = {}
        # The legacy Blocker only consulted a user partitioning on the
        # loose-schema path; seeding it unconditionally would switch
        # schema-agnostic configs to loose-schema blocking.
        if self.partitioning is not None and self.config.blocker.use_loose_schema:
            artifacts["partitioning"] = self.partitioning
        extras: dict[str, object] = {}
        if self.rules is not None:
            extras["rules"] = self.rules
        if self.labeled_pairs is not None:
            extras["labeled_pairs"] = self.labeled_pairs
        if self.custom_matcher is not None:
            extras["matcher"] = self.custom_matcher
        result = pipeline.run(
            profiles, ground_truth, artifacts=artifacts or None, extras=extras or None
        )
        return self._legacy_result(result)

    def _legacy_result(self, result: PipelineResult) -> SparkERResult:
        """Re-package a pipeline result into the legacy facade shape."""
        store = result.artifacts
        blocker_report = BlockerReport(
            partitioning=store.get("partitioning"),  # type: ignore[arg-type]
            cluster_entropies=store.get("cluster_entropies") or {},  # type: ignore[arg-type]
            raw_blocks=store.get("raw_blocks"),  # type: ignore[arg-type]
            purged_blocks=store.get("purged_blocks"),  # type: ignore[arg-type]
            filtered_blocks=store.get("filtered_blocks"),  # type: ignore[arg-type]
            meta_blocking=store.get("meta_blocking"),  # type: ignore[arg-type]
            candidate_pairs=result.candidate_pairs,
        )
        report = PipelineReport()
        timings = StageTimings()
        for stage in result.report.stages:
            if stage.stage in _BLOCKER_LABELS:
                blocker_report.pipeline_report.add(stage.stage, stage.metrics)
            legacy_name = _LEGACY_STAGE_NAMES.get(stage.stage)
            if legacy_name is not None:
                report.add(legacy_name, stage.metrics)
        for execution in result.executions:
            bucket = _TIMING_BUCKETS.get(execution.label)
            if bucket is not None:
                timings.record(bucket, execution.seconds)
            if bucket == "blocker":
                blocker_report.timings.record(execution.label, execution.seconds)
        return SparkERResult(
            blocker_report=blocker_report,
            candidate_pairs=result.candidate_pairs,
            similarity_graph=store.get("similarity_graph"),  # type: ignore[arg-type]
            clusters=result.clusters,
            entities=result.entities,
            report=report,
            timings=timings,
            engine_metrics=result.engine_metrics,
            pipeline_result=result,
        )

    def __call__(
        self, profiles: ProfileCollection, ground_truth: GroundTruth | None = None
    ) -> SparkERResult:
        return self.run(profiles, ground_truth)

    def shutdown(self) -> None:
        """Release engine resources (worker pools); safe without an engine."""
        if self.engine is not None:
            self.engine.stop()
