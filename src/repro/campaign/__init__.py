"""repro.campaign: sharded experiment campaigns with resumable results.

The paper's evaluation is a matrix of experiments, not one run; this
package drives such a matrix end to end:

* :mod:`~repro.campaign.spec` — a declarative campaign spec whose axes
  (topologies × platforms × rule-sets × fault-schedules × overrides)
  expand into a deterministic, content-hashed trial list;
* :mod:`~repro.campaign.runner` — the sharded runner: trials execute
  inline at ``jobs=1`` or over one process pool above, with one shared
  artifact cache, per-trial quarantine and retry;
* :mod:`~repro.campaign.store` — the resumable result store: a JSONL
  index keyed on trial spec hashes plus per-trial run directories;
* :mod:`~repro.campaign.report` — cross-trial tables (Markdown/CSV,
  §7.2-style per-platform outcomes) and baseline comparison.

Entry points: :func:`run_campaign` (also re-exported from
``repro.workflow``) and ``repro campaign run|status|report`` on the CLI.
"""

from repro.campaign.report import (
    CampaignComparison,
    compare_campaigns,
    outcome_table,
    render_csv,
    render_markdown,
    render_report,
)
from repro.campaign.report import summary as campaign_summary
from repro.campaign.runner import CampaignResult, CampaignRunner, run_campaign
from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.campaign.store import (
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    ResultStore,
    TrialRecord,
    load_records,
)

__all__ = [
    "STATUS_FAILED",
    "STATUS_INTERRUPTED",
    "STATUS_OK",
    "STATUS_TIMED_OUT",
    "CampaignComparison",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ResultStore",
    "TrialRecord",
    "TrialSpec",
    "campaign_summary",
    "compare_campaigns",
    "load_records",
    "outcome_table",
    "render_csv",
    "render_markdown",
    "render_report",
    "run_campaign",
]
