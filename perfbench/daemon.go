package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one faqd subprocess on a loopback port, started with
// default flags apart from -addr; its access log is discarded.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	exited chan struct{}
}

func startFaqd(bin string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("this workload needs -faqd")
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	// Stdout/Stderr stay nil: the access log goes to the null device.
	// Pdeathsig stops faqd should this process die without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start faqd: %w", err)
	}
	d := &daemon{
		cmd: cmd,
		url: "http://" + addr,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
		exited: make(chan struct{}),
	}
	go func() { _ = cmd.Wait(); close(d.exited) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("faqd exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("faqd not healthy after 30s: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// freePort reserves a loopback address for faqd to listen on.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// stop drains faqd with SIGTERM, kills it after 15s, and waits for it.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// post sends one body and returns the response body, read into buf (a
// fresh buffer when nil); a client that passes its own buffer keeps the
// load generator's allocation, and so its GC, out of the measurement.
// A status other than 200 is an error (the op counts as failed, never
// retried).
func (d *daemon) post(path string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", path, resp.StatusCode, out)
	}
	return out, nil
}

// metrics scrapes /metrics.
func (d *daemon) metrics() (scrape, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, err
	}
	return parseScrape(b)
}
