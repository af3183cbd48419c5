"""Run-directory persistence: manifest + append-only shard journal.

Layout of a campaign run directory::

    <run_dir>/manifest.json    campaign identity (spec + fingerprint)
    <run_dir>/shards.jsonl     one JSON record per finished shard attempt

``shards.jsonl`` is append-only and fsynced per record, so a campaign
killed at any instant loses at most the shard that was in flight; a
truncated trailing line (the kill landed mid-write) is ignored on load.
Resuming validates the manifest fingerprint against the requested spec —
a checkpoint can only ever be completed by the exact campaign that
started it.
"""

from __future__ import annotations

import json
import os

from ..errors import CampaignError
from .seeding import SAMPLING_DISCIPLINE

MANIFEST_NAME = "manifest.json"
SHARDS_NAME = "shards.jsonl"
FORMAT_VERSION = 1


class RunDirectory:
    """Checkpoint store for one campaign run."""

    def __init__(self, path):
        self.path = str(path)

    @property
    def manifest_path(self):
        return os.path.join(self.path, MANIFEST_NAME)

    @property
    def shards_path(self):
        return os.path.join(self.path, SHARDS_NAME)

    def exists(self):
        return os.path.exists(self.manifest_path)

    # --- lifecycle --------------------------------------------------------------

    def prepare(self, spec, resume=False):
        """Create a fresh run directory, or validate an existing one.

        Starting over an existing checkpoint without ``resume`` is an
        error (it would silently mix two campaigns); resuming a
        checkpoint of a *different* campaign is an error too.
        """
        if self.exists():
            if not resume:
                raise CampaignError(
                    "run directory %r already holds a campaign "
                    "(pass resume=True / --resume to continue it)"
                    % self.path)
            manifest = self.load_manifest()
            if manifest["fingerprint"] != spec.fingerprint():
                raise CampaignError(
                    "run directory %r was checkpointed by a different "
                    "campaign (seed/trials/surface changed?)" % self.path)
            # Shard results are functions of the sampling discipline;
            # a journal written under an older stream cannot be merged
            # with shards sampled under the current one.
            recorded = manifest.get("sampling", SAMPLING_DISCIPLINE)
            if recorded != SAMPLING_DISCIPLINE:
                raise CampaignError(
                    "run directory %r was sampled under discipline %r "
                    "(current: %r); finish it with the matching release "
                    "or start a fresh run directory"
                    % (self.path, recorded, SAMPLING_DISCIPLINE))
            return
        if resume and not os.path.exists(self.path):
            raise CampaignError(
                "cannot resume: run directory %r does not exist"
                % self.path)
        os.makedirs(self.path, exist_ok=True)
        manifest = {
            "format": FORMAT_VERSION,
            "fingerprint": spec.fingerprint(),
            "sampling": SAMPLING_DISCIPLINE,
            "spec": spec.to_manifest(),
        }
        with open(self.manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def load_manifest(self):
        try:
            with open(self.manifest_path) as handle:
                return json.load(handle)
        except (OSError, ValueError) as error:
            raise CampaignError(
                "cannot read campaign manifest %r: %s"
                % (self.manifest_path, error)) from None

    # --- shard journal ----------------------------------------------------------

    def append_shard(self, record):
        """Durably append one shard record (fsynced before returning)."""
        line = json.dumps(record, sort_keys=True)
        with open(self.shards_path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_shards(self):
        """{shard_index: record} of every parseable record (last wins)."""
        records = {}
        if not os.path.exists(self.shards_path):
            return records
        with open(self.shards_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # truncated trailing line from a kill
                records[record["shard"]] = record
        return records

    def completed_shards(self):
        """{shard_index: record} of shards that finished successfully."""
        return {index: record
                for index, record in self.load_shards().items()
                if record.get("status") == "ok"}
