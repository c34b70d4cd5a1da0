"""Tests for the unified resilience layer.

Deterministic (``VirtualClock``) coverage of the retry policy, the
circuit breaker, quorum-degraded voting, checkpoint/resume, and the
scripted acceptance scenario: a survey that survives a GSV transient
burst, one hard-down LLM member, and a quota cliff at 80% of its
locations — then resumes to full coverage without re-billing.
"""

import pytest

from repro.core import (
    ClassificationError,
    ClassifierConfig,
    LLMIndicatorClassifier,
    NeighborhoodDecoder,
    VotingEnsemble,
    majority_vote,
)
from repro.geo import make_robeson_like
from repro.gsv.api import (
    FEE_PER_IMAGE_USD,
    StreetViewClient,
    TransientNetworkError,
)
from repro.llm.errors import (
    InvalidRequestError,
    LLMError,
    RateLimitError,
    ServerError,
)
from repro.resilience import (
    CheckpointMismatchError,
    CircuitBreaker,
    CircuitOpenError,
    CircuitState,
    FaultSchedule,
    FaultyChatClient,
    RetryPolicy,
    RetryStats,
    SurveyCheckpoint,
    VirtualClock,
)


def _always(error):
    """A schedule that injects ``error`` on every call."""
    return FaultSchedule().after(error, start=1)


def _hard_down(client, error=None):
    return FaultyChatClient(
        client, _always(error or ServerError("model offline"))
    )


class TestRetryPolicy:
    def test_jittered_delays_within_backoff_cap(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=1.0, max_delay_s=8.0)
        for attempt in range(1, 6):
            cap = min(8.0, 1.0 * 2 ** (attempt - 1))
            delays = [policy.delay_for(attempt) for _ in range(200)]
            assert all(0.0 <= d <= cap for d in delays)
            # Full jitter actually spreads over the interval.
            assert max(delays) > 0.5 * cap
            assert min(delays) < 0.5 * cap

    def test_jitter_deterministic_under_seed(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.delay_for(3) for _ in range(10)] == [
            b.delay_for(3) for _ in range(10)
        ]

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.01)
        err = RateLimitError("429", retry_after_s=4.5)
        assert policy.delay_for(1, err) == pytest.approx(4.5)

    def test_no_sleep_after_final_attempt(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=3, base_delay_s=1.0)
        outcome = policy.execute(
            lambda: (_ for _ in ()).throw(ServerError("boom")),
            retryable=(ServerError,),
            clock=clock,
        )
        assert not outcome.ok
        assert outcome.attempts == 3
        assert outcome.retries == 2
        assert len(clock.sleeps) == 2  # never sleeps into the RuntimeError

    def test_giveup_captured_without_retry(self):
        clock = VirtualClock()
        outcome = RetryPolicy(max_attempts=4).execute(
            lambda: (_ for _ in ()).throw(InvalidRequestError("bad")),
            retryable=(ServerError,),
            giveup=(InvalidRequestError,),
            clock=clock,
        )
        assert isinstance(outcome.error, InvalidRequestError)
        assert outcome.attempts == 1
        assert clock.sleeps == []

    def test_retryable_wins_over_giveup_base_class(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise RateLimitError("429", retry_after_s=0.0)
            return "ok"

        outcome = RetryPolicy(max_attempts=3, base_delay_s=0.0).execute(
            flaky,
            retryable=(RateLimitError, ServerError),
            giveup=(Exception,),
            clock=VirtualClock(),
        )
        assert outcome.ok and outcome.value == "ok"
        assert outcome.attempts == 2

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, recovery=10.0):
        return CircuitBreaker(
            name="test",
            failure_threshold=threshold,
            recovery_time_s=recovery,
            clock=clock,
        )

    def test_opens_at_threshold(self):
        clock = VirtualClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_consecutive_count(self):
        breaker = self._breaker(VirtualClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_half_open_probe_recovers(self):
        clock = VirtualClock()
        breaker = self._breaker(clock, threshold=1, recovery=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.sleep(5.0)
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED

    def test_failed_probe_reopens(self):
        clock = VirtualClock()
        breaker = self._breaker(clock, threshold=1, recovery=5.0)
        breaker.record_failure()
        clock.sleep(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert breaker.opens == 2
        assert breaker.remaining_open_s() == pytest.approx(5.0)

    def test_retry_policy_short_circuits_when_open(self):
        clock = VirtualClock()
        breaker = self._breaker(clock, threshold=1, recovery=100.0)
        breaker.record_failure()
        outcome = RetryPolicy(max_attempts=4).execute(
            lambda: "never runs",
            retryable=(ServerError,),
            clock=clock,
            breaker=breaker,
        )
        assert outcome.breaker_blocked
        assert outcome.attempts == 0
        assert isinstance(outcome.error, CircuitOpenError)


class TestClassifierRetryDelegation:
    def test_terminal_failure_does_not_sleep_final_backoff(self, small_dataset):
        clock = VirtualClock()
        classifier = LLMIndicatorClassifier(
            _hard_down_client(),
            ClassifierConfig(max_attempts=3, backoff_s=1.0),
            clock=clock,
        )
        with pytest.raises(ClassificationError):
            classifier.classify_image(small_dataset[0])
        # Two backoffs between three attempts; none after the last.
        assert len(clock.sleeps) == 2
        assert classifier.retry_stats.failures == 1

    def test_retry_after_floor_respected(self, small_dataset):
        clock = VirtualClock()
        classifier = LLMIndicatorClassifier(
            _hard_down_client(RateLimitError("429", retry_after_s=7.0)),
            ClassifierConfig(max_attempts=2, backoff_s=0.001),
            clock=clock,
        )
        with pytest.raises(ClassificationError):
            classifier.classify_image(small_dataset[0])
        assert clock.sleeps == [pytest.approx(7.0)]


def _hard_down_client(error=None):
    from repro.llm.base import ChatClient

    class Down(ChatClient):
        def complete(self, request):
            raise error or ServerError("offline")

    return Down("gpt-4o-mini")


class TestRetryStatsTally:
    """``RetryStats`` counts what a chat request's retries really did."""

    def _request(self, scene):
        from repro.core import build_parallel_prompt
        from repro.llm.base import ChatMessage, ChatRequest, ImageAttachment

        return ChatRequest(
            model="gpt-4o-mini",
            messages=(
                ChatMessage(
                    role="user",
                    text=build_parallel_prompt(),
                    images=(ImageAttachment(scene=scene),),
                ),
            ),
        )

    @staticmethod
    def _send(client, request, stats, clock, max_attempts=4, breaker=None):
        return RetryPolicy(max_attempts=max_attempts).execute(
            lambda: client.complete(request),
            retryable=(RateLimitError, ServerError),
            giveup=(LLMError,),
            clock=clock,
            breaker=breaker,
            stats=stats,
        )

    def test_exhausted_request_counts_only_real_retries(self, urban_scene):
        stats = RetryStats()
        outcome = self._send(
            _hard_down_client(),
            self._request(urban_scene),
            stats,
            VirtualClock(),
            max_attempts=3,
        )
        assert stats.failures == 1
        assert outcome.attempts == 3
        assert stats.retries == 2  # not 3: the terminal failure isn't a retry

    def test_non_retryable_counts_zero_retries(self, clients, urban_scene):
        request = self._request(urban_scene)
        # Wrong client for the model → InvalidRequestError, never retried.
        bad = request.__class__(model="grok-2", messages=request.messages)
        stats = RetryStats()
        outcome = self._send(clients["gpt-4o-mini"], bad, stats, VirtualClock())
        assert stats.failures == 1
        assert stats.retries == 0
        assert outcome.attempts == 1
        assert isinstance(outcome.error, InvalidRequestError)

    def test_breaker_stops_burning_attempts(self, urban_scene):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            name="llm", failure_threshold=3, recovery_time_s=1e9, clock=clock
        )
        client = _hard_down_client()
        stats = RetryStats()
        outcomes = [
            self._send(
                client,
                self._request(urban_scene),
                stats,
                clock,
                max_attempts=3,
                breaker=breaker,
            )
            for _ in range(4)
        ]
        assert stats.failures == 4
        # First request trips the breaker; the rest are rejected instantly.
        assert outcomes[0].attempts == 3
        assert all(o.attempts == 0 for o in outcomes[1:])
        assert all(
            isinstance(o.error, CircuitOpenError) for o in outcomes[1:]
        )
        assert stats.breaker_blocks == 3


class TestQuorumDegradation:
    def _members(self, clients, names, down=()):
        members = {}
        for name in names:
            client = clients[name]
            if name in down:
                client = _hard_down(client)
            members[name] = LLMIndicatorClassifier(
                client, ClassifierConfig(max_attempts=2)
            )
        return members

    def test_one_of_three_down(self, clients, small_dataset):
        names = ("gemini-1.5-pro", "claude-3.7", "grok-2")
        images = small_dataset.images[:4]
        degraded = VotingEnsemble(
            self._members(clients, names, down=("grok-2",))
        )
        records = degraded.resilient_predictions(images)
        assert all(r.degraded for r in records)
        assert all(r.members_failed == ("grok-2",) for r in records)
        # The degraded vote equals a 2-member majority of the survivors.
        healthy = VotingEnsemble(self._members(clients, names[:2]))
        for record, image in zip(records, images):
            survivors = [
                healthy.classifiers[name].classify_image(image).presence
                for name in sorted(names[:2])
            ]
            assert record.presence == majority_vote(survivors, quorum=2)

    def test_two_of_four_down(self, clients, small_dataset):
        names = ("gemini-1.5-pro", "claude-3.7", "grok-2", "gpt-4o-mini")
        ensemble = VotingEnsemble(
            self._members(clients, names, down=("grok-2", "gpt-4o-mini"))
        )
        records = ensemble.resilient_predictions(small_dataset.images[:3])
        for record in records:
            assert set(record.members_failed) == {"grok-2", "gpt-4o-mini"}
            assert set(record.members_voted) == {"gemini-1.5-pro", "claude-3.7"}

    def test_all_members_down_raises(self, clients, small_dataset):
        ensemble = VotingEnsemble(
            self._members(
                clients,
                ("gemini-1.5-pro", "claude-3.7"),
                down=("gemini-1.5-pro", "claude-3.7"),
            )
        )
        with pytest.raises(ClassificationError):
            ensemble.vote_image(small_dataset[0])

    def test_member_breaker_stops_burning_attempts(self, clients, small_dataset):
        schedule = _always(ServerError("offline"))
        down = FaultyChatClient(clients["grok-2"], schedule)
        members = self._members(clients, ("gemini-1.5-pro", "claude-3.7"))
        members["grok-2"] = LLMIndicatorClassifier(
            down, ClassifierConfig(max_attempts=2)
        )
        ensemble = VotingEnsemble(
            members,
            breakers={
                "grok-2": CircuitBreaker(
                    name="grok-2",
                    failure_threshold=1,
                    recovery_time_s=1e9,
                    clock=VirtualClock(),
                )
            },
        )
        ensemble.resilient_predictions(small_dataset.images[:5])
        # Only the first image reaches the dead client (2 attempts);
        # the open circuit absorbs the remaining four images.
        assert schedule.calls == 2

    def test_breakers_validate_member_names(self, clients):
        with pytest.raises(ValueError):
            VotingEnsemble(
                self._members(clients, ("gemini-1.5-pro", "claude-3.7")),
                breakers={"nope": CircuitBreaker()},
            )


class TestSurveyGuards:
    def test_zero_locations(self, clients):
        county = make_robeson_like(seed=2)
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="k"),
            classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        )
        report = decoder.survey(county, n_locations=0)
        assert report.coverage == 0.0
        assert report.locations == []
        assert report.images_classified == 0

    def test_negative_locations(self, clients):
        county = make_robeson_like(seed=2)
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="k"),
            classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        )
        report = decoder.survey(county, n_locations=-3)
        assert report.coverage == 0.0
        assert report.requested_locations == 0

    def test_empty_sampling_frame(self, clients, monkeypatch):
        county = make_robeson_like(seed=2)
        monkeypatch.setattr(
            "repro.geo.sampling.build_sampling_frame",
            lambda county, graph: [],
        )
        decoder = NeighborhoodDecoder(
            street_view=StreetViewClient(counties=[county], api_key="k"),
            classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
        )
        report = decoder.survey(county, n_locations=5)
        assert report.coverage == 0.0
        assert report.locations == []


class TestSurveyCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        key = {"county": "Robeson", "n_locations": 5, "seed": 0}
        store = SurveyCheckpoint(path, key)
        store.record(0, {"present": ["sidewalk"], "images": 4})
        store.record(2, {"present": [], "images": 4})
        reloaded = SurveyCheckpoint(path, key)
        assert reloaded.completed_indices == (0, 2)
        assert reloaded.get(0)["present"] == ["sidewalk"]
        assert not reloaded.has(1)

    def test_key_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        SurveyCheckpoint(path, {"seed": 0}).record(0, {})
        with pytest.raises(CheckpointMismatchError):
            SurveyCheckpoint(path, {"seed": 1})


class TestCheckpointCorruption:
    """A damaged checkpoint must cost a re-fetch, never wedge the survey."""

    KEY = {"county": "Durham", "n_locations": 3, "seed": 0}

    def _intact(self, tmp_path, n_records=2):
        path = tmp_path / "ckpt.json"
        store = SurveyCheckpoint(path, self.KEY)
        for index in range(n_records):
            store.record(index, {"present": ["sidewalk"][:index], "images": 4})
        return path

    def test_truncation_at_every_byte_offset_keeps_whole_records(
        self, tmp_path
    ):
        """Every prefix of a log loads its whole records and nothing else.

        This replays what a process killed mid-append leaves behind:
        the file cut at *every* byte offset.  A prefix loads exactly
        the records whose lines are complete (never a partial one),
        quarantines only when the header line itself is cut, counts a
        torn tail, and leaves the file's bytes alone.  The next record
        then reloads as the old records plus the new one, with nothing
        of the torn tail glued in.
        """
        from repro.obs.metrics import MetricsRegistry, use_metrics

        intact = self._intact(tmp_path, n_records=3).read_bytes()
        line_ends = [
            offset + 1
            for offset, byte in enumerate(intact)
            if byte == ord("\n")
        ]
        header_end = line_ends[0]
        assert len(line_ends) == 4  # header + three records

        for cut in range(len(intact) + 1):
            path = tmp_path / f"cut_{cut}.json"
            prefix = intact[:cut]
            path.write_bytes(prefix)
            registry = MetricsRegistry()
            with use_metrics(registry):
                store = SurveyCheckpoint(path, self.KEY)
            whole = sum(1 for end in line_ends[1:] if end <= cut)
            if cut < header_end:
                assert len(store) == 0, f"cut at byte {cut} leaked records"
                assert registry.counter("checkpoint.corrupt") == 1.0
                assert not path.exists()
                assert (
                    path.with_suffix(".json.corrupt").read_bytes() == prefix
                )
            else:
                assert store.completed_indices == tuple(range(whole)), (
                    f"cut at byte {cut}"
                )
                assert registry.counter("checkpoint.corrupt") == 0.0
                torn = 0.0 if cut in line_ends else 1.0
                assert registry.counter("checkpoint.torn_tail") == torn
                assert path.read_bytes() == prefix  # loading never writes
            # The store stays usable: the next record lands on whole
            # records only.
            store.record(7, {"present": [], "images": 4})
            reloaded = SurveyCheckpoint(path, self.KEY)
            expected = tuple(range(whole)) if cut >= header_end else ()
            assert reloaded.completed_indices == expected + (7,)
            assert reloaded.get(7) == {"present": [], "images": 4}
            for index in expected:
                assert reloaded.get(index) == store.get(index)

    def test_checksum_mismatch_quarantines(self, tmp_path):
        """Bit-rot in a record with a whole line after it is corruption."""
        from repro.obs.metrics import MetricsRegistry, use_metrics

        path = self._intact(tmp_path)
        lines = path.read_bytes().split(b"\n")
        assert b'"images": 4' in lines[1]  # record 0, not the final line
        lines[1] = lines[1].replace(b'"images": 4', b'"images": 400')
        path.write_bytes(b"\n".join(lines))
        registry = MetricsRegistry()
        with use_metrics(registry):
            store = SurveyCheckpoint(path, self.KEY)
        assert len(store) == 0
        assert registry.counter("checkpoint.corrupt") == 1.0
        assert path.with_suffix(".json.corrupt").exists()

    def test_damaged_final_record_is_a_torn_tail(self, tmp_path):
        """A whole final line that fails its checksum is dropped, not
        quarantined: only the last append can be torn."""
        from repro.obs.metrics import MetricsRegistry, use_metrics

        path = self._intact(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"images": 4', b'"images": 400')
        path.write_bytes(b"\n".join(lines))
        registry = MetricsRegistry()
        with use_metrics(registry):
            store = SurveyCheckpoint(path, self.KEY)
        assert store.completed_indices == (0,)
        assert registry.counter("checkpoint.corrupt") == 0.0
        assert registry.counter("checkpoint.torn_tail") == 1.0
        store.record(1, {"present": [], "images": 4})
        assert SurveyCheckpoint(path, self.KEY).completed_indices == (0, 1)

    def test_record_appends_one_line_in_place(self, tmp_path):
        """O(1) per record: no rewrite, no rename, one new line."""
        path = tmp_path / "ckpt.json"
        store = SurveyCheckpoint(path, self.KEY)
        store.record(0, {"present": [], "images": 4})
        inode = path.stat().st_ino
        before = path.read_bytes()
        for index in range(1, 50):
            store.record(index, {"present": ["sidewalk"], "images": 4})
            after = path.read_bytes()
            assert after.startswith(before)
            grown = after[len(before):]
            assert grown.endswith(b"\n") and grown.count(b"\n") == 1
            assert path.stat().st_ino == inode
            before = after
        assert SurveyCheckpoint(path, self.KEY).completed_indices == tuple(
            range(50)
        )

    def test_duplicate_index_keeps_the_last_record(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = SurveyCheckpoint(path, self.KEY)
        store.record(0, {"images": 4})
        store.record(0, {"images": 8})
        assert SurveyCheckpoint(path, self.KEY).get(0) == {"images": 8}

    def test_unknown_format_version_still_raises(self, tmp_path):
        """A future format is a config bug, not corruption: fail loudly."""
        import json as _json

        path = tmp_path / "ckpt.json"
        path.write_text(_json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            SurveyCheckpoint(path, self.KEY)

    def test_version_1_document_without_checksum_loads(self, tmp_path):
        """Pre-hardening checkpoints keep their value (and their billing)."""
        import json as _json

        path = tmp_path / "ckpt.json"
        path.write_text(
            _json.dumps(
                {
                    "format_version": 1,
                    "key": {k: self.KEY[k] for k in sorted(self.KEY)},
                    "locations": {"0": {"present": [], "images": 4}},
                }
            )
        )
        store = SurveyCheckpoint(path, self.KEY)
        assert store.completed_indices == (0,)

    @staticmethod
    def _legacy_document(version, key, locations):
        """A whole-JSON checkpoint exactly as versions 1 and 2 wrote it."""
        import hashlib
        import json as _json

        payload = {
            "format_version": version,
            "key": key,
            "locations": locations,
        }
        if version == 2:
            body = _json.dumps(
                {"key": key, "locations": locations}, sort_keys=True
            )
            payload["checksum"] = hashlib.sha256(
                body.encode("utf-8")
            ).hexdigest()
        return _json.dumps(payload)

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_document_migrates_on_first_record(
        self, tmp_path, version
    ):
        key = {k: self.KEY[k] for k in sorted(self.KEY)}
        locations = {
            "0": {"present": ["sidewalk"], "images": 4},
            "2": {"present": [], "images": 4},
        }
        path = tmp_path / "ckpt.json"
        path.write_text(self._legacy_document(version, key, locations))
        store = SurveyCheckpoint(path, self.KEY)
        assert store.completed_indices == (0, 2)
        store.record(1, {"present": [], "images": 3})
        assert path.read_bytes().count(b"\n") == 4  # header + 3 records
        reloaded = SurveyCheckpoint(path, self.KEY)
        assert reloaded.completed_indices == (0, 1, 2)
        assert reloaded.get(0) == locations["0"]
        assert reloaded.get(1) == {"present": [], "images": 3}
        # Migrated once: the next record is a plain append.
        inode = path.stat().st_ino
        reloaded.record(3, {"present": [], "images": 4})
        assert path.stat().st_ino == inode
        assert SurveyCheckpoint(path, self.KEY).completed_indices == (
            0, 1, 2, 3,
        )


class TestScriptedOutageScenario:
    """The acceptance scenario: GSV burst + one LLM hard-down + quota
    cliff at 80% of locations, then checkpoint resume at full coverage
    with no double billing."""

    N_LOCATIONS = 5  # 20 images; quota cliff at 16 = 80%

    def _ensemble(self, clients, clock):
        names = ("gemini-1.5-pro", "claude-3.7", "grok-2")
        members = {
            name: LLMIndicatorClassifier(
                clients[name], ClassifierConfig(max_attempts=2)
            )
            for name in names[:2]
        }
        members["grok-2"] = LLMIndicatorClassifier(
            _hard_down(clients["grok-2"]),
            ClassifierConfig(max_attempts=2),
        )
        return VotingEnsemble(
            members,
            breakers={
                "grok-2": CircuitBreaker(
                    name="grok-2",
                    failure_threshold=2,
                    recovery_time_s=1e9,
                    clock=clock,
                )
            },
        )

    def test_survives_and_resumes_without_rebilling(self, clients, tmp_path):
        county = make_robeson_like(seed=2)
        checkpoint = tmp_path / "survey.json"
        clock = VirtualClock()
        outage = StreetViewClient(
            counties=[county],
            api_key="scenario",
            daily_quota=int(0.8 * self.N_LOCATIONS) * 4,
            fault_schedule=FaultSchedule().burst(
                TransientNetworkError("transient burst"), start=3, length=2
            ),
        )
        decoder = NeighborhoodDecoder(
            street_view=outage,
            ensemble=self._ensemble(clients, clock),
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.2),
            clock=clock,
        )
        report = decoder.survey(
            county, self.N_LOCATIONS, seed=0, checkpoint=checkpoint
        )

        assert report.coverage >= 0.8
        assert len(report.failed_locations) == 1
        assert "QuotaExceededError" in report.failed_locations[0].reason
        assert report.degraded_votes == report.images_classified  # grok down
        assert report.retry_stats.retries >= 2  # the transient burst
        assert clock.sleeps  # backoff actually waited (on the virtual clock)
        fees_first = outage.usage().fees_usd
        assert fees_first == pytest.approx(16 * FEE_PER_IMAGE_USD)

        # Resume next day: fresh quota, no faults, same checkpoint.
        recovered = StreetViewClient(counties=[county], api_key="scenario")
        resumed = NeighborhoodDecoder(
            street_view=recovered,
            ensemble=self._ensemble(clients, clock),
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.2),
            clock=clock,
        )
        report2 = resumed.survey(
            county, self.N_LOCATIONS, seed=0, checkpoint=checkpoint
        )
        assert report2.coverage == 1.0
        assert not report2.failed_locations
        assert len(report2.locations) == self.N_LOCATIONS
        # Only the one missing location was fetched and billed.
        assert recovered.usage().fees_usd == pytest.approx(
            4 * FEE_PER_IMAGE_USD
        )
        assert report2.fees_usd == pytest.approx(4 * FEE_PER_IMAGE_USD)
        assert fees_first + recovered.usage().fees_usd == pytest.approx(
            self.N_LOCATIONS * 4 * FEE_PER_IMAGE_USD
        )
