// Package devicelink implements the full controller↔phone data path of the
// prototype (Figs. 9–10, §VI-D): the controller runs a daemon on the USB
// accessory link; when a phone connects, the two sides handshake, the
// controller streams the (already encrypted) zip-compressed measurements
// over CRC-framed accessory messages interleaved with progress updates for
// the phone UI, the phone app uploads them to the cloud over its cellular
// link, and the analysis report travels back over the same framed link.
//
// The phone side holds no keys; everything it handles is ciphertext and the
// already-public peak report.
package devicelink

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"medsen/internal/accessory"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/lockin"
	"medsen/internal/phone"
)

// MaxReportBytes bounds the analysis report the device takes back from the
// phone, which it does not trust (DESIGN.md §4): the largest report a 3 h
// capture yields. At 450 Hz a 3 h capture has 4.86 M samples, and the peak
// detector (MinWidth 2, MinSeparation 2) finds at most one peak in every 4
// of them. Each peak's JSON holds 11 floats (time, amplitude, width, one
// amplitude per carrier of the 8), each at most 25 bytes as encoding/json
// writes them, and 69 bytes of names and punctuation: 344 bytes. The rest
// of the report is far below the 64 KiB added for it.
const MaxReportBytes = 3*3600*450/4*maxPeakJSONBytes + 64<<10

// maxPeakJSONBytes is one peak's report entry at its longest.
const maxPeakJSONBytes = 11*25 + 69

// DeviceSend runs the controller's side of one measurement transfer over the
// accessory transport rw: handshake, upload the capture, receive the
// analysis report back. progress (may be nil) receives UI status lines that
// are also forwarded to the phone.
func DeviceSend(rw io.ReadWriter, acq lockin.Acquisition, progress func(string)) (cloud.Report, error) {
	conn, err := accessory.Handshake(rw, accessory.DefaultIdentity())
	if err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: handshake: %w", err)
	}
	note := func(s string) {
		if progress != nil {
			progress(s)
		}
		// Best-effort UI update; a lost progress frame is not an error.
		_ = conn.SendProgress(s)
	}

	note("compressing measurements")
	payload, err := csvio.CompressAcquisition(acq)
	if err != nil {
		return cloud.Report{}, err
	}
	note(fmt.Sprintf("sending %d bytes to phone", len(payload)))
	if _, err := conn.SendData(payload); err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: sending measurements: %w", err)
	}

	reportJSON, err := conn.ReceiveData(MaxReportBytes, progress)
	if err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: receiving report: %w", err)
	}
	var report cloud.Report
	if err := json.Unmarshal(reportJSON, &report); err != nil {
		return cloud.Report{}, fmt.Errorf("devicelink: decoding report: %w", err)
	}
	return report, nil
}

// PhoneServe runs the phone app's side of one transfer: handshake, receive
// the compressed measurements, upload them through the relay, and return the
// report to the device. It returns the analysis id for later retrieval.
func PhoneServe(ctx context.Context, rw io.ReadWriter, relay *phone.Relay) (string, error) {
	if relay == nil || relay.Client == nil {
		return "", errors.New("devicelink: phone relay not configured")
	}
	phoneID := accessory.Identity{Manufacturer: "Google", Model: "Nexus 5", Version: "Android 4.4"}
	conn, err := accessory.Handshake(rw, phoneID)
	if err != nil {
		return "", fmt.Errorf("devicelink: handshake: %w", err)
	}
	payload, err := conn.ReceiveData(cloud.MaxUploadBytes, relay.Progress)
	if err != nil {
		return "", fmt.Errorf("devicelink: receiving measurements: %w", err)
	}

	// Model the cellular transfer cost, then upload.
	if _, err := relay.Uplink.TransferContext(ctx, len(payload)); err != nil {
		return "", fmt.Errorf("devicelink: uplink: %w", err)
	}
	// Submit honors the relay's async mode, so a job the service failed —
	// including one recovered as failed after a cloud restart — propagates
	// its error code back over the accessory link instead of stranding the
	// device.
	sub, err := relay.Submit(ctx, payload)
	if err != nil {
		// Tell the device the transfer failed rather than leaving it
		// blocked on a report that will never come.
		_ = accessory.WriteFrame(rw, accessory.Frame{
			Type:    accessory.FrameError,
			Payload: []byte(err.Error()),
		})
		return "", err
	}
	if relay.Progress != nil {
		relay.Progress(fmt.Sprintf("analysis %s complete: %d peaks", sub.ID, sub.Report.PeakCount))
	}

	reportJSON, err := json.Marshal(sub.Report)
	if err != nil {
		return "", fmt.Errorf("devicelink: encoding report: %w", err)
	}
	if _, err := conn.SendData(reportJSON); err != nil {
		return "", fmt.Errorf("devicelink: returning report: %w", err)
	}
	return sub.ID, nil
}
