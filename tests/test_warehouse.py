"""Unit tests for golden images and the VM warehouse."""

import pytest

from repro.core.actions import Action
from repro.core.errors import ProtocolError, ReproError, WarehouseError
from repro.core.spec import HardwareSpec
from repro.plant.warehouse import GoldenImage, VMWarehouse
from repro.sim.cluster import build_testbed
from repro.workloads.requests import (
    experiment_request,
    golden_image,
    install_os_action,
)

from tests.helpers import drive, oracle_image_to_xml


class TestGoldenImage:
    def test_clone_payload_excludes_disk(self):
        image = golden_image(64)
        assert image.clone_payload_mb == pytest.approx(
            0.1 + 16.0 + 64.0
        )
        assert image.disk_state_mb == 2048.0

    def test_uml_image_has_no_memory_state(self):
        image = golden_image(32, vm_type="uml")
        assert image.memory_state_mb == 0.0

    def test_performed_names_ordered(self):
        image = GoldenImage(
            image_id="i",
            vm_type="vmware",
            os="os",
            hardware=HardwareSpec(),
            performed=(Action("b"), Action("a")),
        )
        assert image.performed_names == ("b", "a")

    def test_with_performed_appends(self):
        base = golden_image(32)
        derived = base.with_performed(
            [Action("extra")], image_id="derived"
        )
        assert derived.image_id == "derived"
        assert derived.performed_names == ("install-os", "extra")
        # Original untouched (frozen dataclass).
        assert base.performed_names == ("install-os",)

    def test_validation(self):
        with pytest.raises(ValueError):
            GoldenImage(
                image_id="i", vm_type="v", os="o",
                hardware=HardwareSpec(), disk_state_mb=-1,
            )
        with pytest.raises(ValueError):
            GoldenImage(
                image_id="i", vm_type="v", os="o",
                hardware=HardwareSpec(), disk_files=0,
            )

    def test_xml_roundtrip(self):
        image = GoldenImage(
            image_id="workspace",
            vm_type="vmware",
            os="rh8",
            hardware=HardwareSpec(memory_mb=128, disk_gb=8.0, cpus=2),
            performed=(
                install_os_action("rh8"),
                Action("install-vnc", command="rpm -i {p}",
                       params={"p": "vnc.rpm"}, outputs=("port",)),
            ),
            disk_state_mb=1024.0,
            disk_files=8,
            memory_state_mb=128.0,
            base_redo_mb=32.0,
        )
        back = GoldenImage.from_xml(image.to_xml())
        assert back == image

    def test_xml_strictness(self):
        with pytest.raises(ProtocolError):
            GoldenImage.from_xml("<nope/>")
        with pytest.raises(ProtocolError):
            GoldenImage.from_xml('<golden-image id="x"/>')  # missing attrs

    def test_classad_description(self):
        ad = golden_image(64).to_classad()
        assert ad["memory_mb"] == 64
        assert ad["performed"] == ["install-os"]


class TestVMWarehouse:
    def test_publish_and_get(self):
        wh = VMWarehouse([golden_image(32)])
        assert len(wh) == 1
        assert "vmware-mandrake81-32mb" in wh
        assert wh.get("vmware-mandrake81-32mb").hardware.memory_mb == 32

    def test_duplicate_publish_rejected(self):
        wh = VMWarehouse([golden_image(32)])
        with pytest.raises(WarehouseError):
            wh.publish(golden_image(32))

    def test_get_missing_raises(self):
        with pytest.raises(WarehouseError):
            VMWarehouse().get("ghost")

    def test_images_filter_by_vm_type(self):
        wh = VMWarehouse(
            [golden_image(32), golden_image(32, vm_type="uml")]
        )
        assert len(wh.images()) == 2
        assert len(wh.images("vmware")) == 1
        assert wh.images("uml")[0].vm_type == "uml"

    def test_to_element_builder_matches_string_api(self):
        image = golden_image(64)
        assert image.to_xml() == oracle_image_to_xml(image)
        assert GoldenImage.from_xml(image.to_xml()) == image

    def test_match_stats_after_a_fixed_bid_stream(self):
        # Every bid's select is a query, a bid its plant then declines
        # at its VM cap included: 10 rounds of 3 plants plus 6 creates.
        bed = build_testbed(
            seed=2004, n_plants=3, max_vms_per_plant=2, networks_per_plant=2
        )
        failed = 0
        for n in range(10):
            request = experiment_request(
                (32, 64, 256)[n % 3], domain=f"d{n % 4}"
            )
            try:
                drive(bed.env, bed.shop.create(request))
            except ReproError:
                failed += 1
        assert failed == 4
        assert bed.warehouse.match_stats == {"queries": 36, "memo_hits": 33}
