package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"
)

// service-open's load comes from a child process running this binary
// with -loadgen. In the server's own process the generator's timer and
// connection goroutines waited for one of the two Ps the engine keeps
// busy: on a 2-core VM the generator ran up to 8 ms late at p95, and
// the resulting bursts moved latency_p95_ms by 80% between runs of one
// seed. As a separate process the kernel schedules it like any client.

// loadJob is what the generator is told to send.
type loadJob struct {
	URL  string  `json:"url"`
	Rate float64 `json:"rate"`
	// Bodies holds one request body per script; Sched the script of
	// each request, in order.
	Bodies []json.RawMessage `json:"bodies"`
	Sched  []int             `json:"sched"`
}

// loadReply is what came of one request. Times count from the start of
// the schedule.
type loadReply struct {
	Due        time.Duration   `json:"due"`
	Dispatched time.Duration   `json:"dispatched"`
	Sent       time.Duration   `json:"sent"`
	Done       time.Duration   `json:"done"`
	Err        string          `json:"err,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// runLoadgen is the child's side: it reads a job from r, sends its
// schedule at the job's rate regardless of how fast answers come back,
// and writes the replies to w. The dispatcher hands each request, at its
// due time, to whichever connection's worker is free.
func runLoadgen(r io.Reader, w io.Writer) error {
	var job loadJob
	if err := json.NewDecoder(r).Decode(&job); err != nil {
		return fmt.Errorf("reading the load job: %w", err)
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	defer client.CloseIdleConnections()
	replies := make([]loadReply, len(job.Sched))
	queue := make(chan int, len(job.Sched)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				rep := &replies[k]
				rep.Sent = time.Since(start)
				body, err := send(client, job.URL, job.Bodies[job.Sched[k]])
				rep.Done = time.Since(start)
				if err != nil {
					rep.Err = err.Error()
				} else {
					rep.Body = body
				}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / job.Rate)
	for k := range job.Sched {
		due := time.Duration(k) * interval
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		replies[k].Due = due
		replies[k].Dispatched = time.Since(start)
		queue <- k
	}
	close(queue)
	wg.Wait()
	return json.NewEncoder(w).Encode(replies)
}

// send posts one request body to /v1/deobfuscate and returns a 200
// answer's body.
func send(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url+"/v1/deobfuscate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}

// generate runs a child generator against the service and returns what
// came of each request, with the CPU time the server process spent.
func (s *httpService) generate(scripts []input, sched []int, rate float64, log io.Writer) ([]request, time.Duration, error) {
	bodies := make([]json.RawMessage, len(scripts))
	for i := range scripts {
		var err error
		if bodies[i], err = requestBody(&scripts[i]); err != nil {
			return nil, 0, err
		}
	}
	job, err := json.Marshal(loadJob{URL: s.ts.URL, Rate: rate, Bodies: bodies, Sched: sched})
	if err != nil {
		return nil, 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "-loadgen")
	cmd.Stdin = bytes.NewReader(job)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = log
	cpu0 := cpuTime()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("load generator: %w", err)
	}
	cpu := cpuTime() - cpu0
	var replies []loadReply
	if err := json.Unmarshal(out.Bytes(), &replies); err != nil {
		return nil, 0, fmt.Errorf("reading the load generator's replies: %w", err)
	}
	if len(replies) != len(sched) {
		return nil, 0, fmt.Errorf("load generator answered %d of %d requests", len(replies), len(sched))
	}
	reqs := make([]request, len(replies))
	for k, rep := range replies {
		r := request{idx: sched[k], due: rep.Due, dispatched: rep.Dispatched, sent: rep.Sent, done: rep.Done}
		if rep.Err != "" {
			r.err = errors.New(rep.Err)
		} else {
			r.resp, r.err = decodeResponse(rep.Body)
		}
		reqs[k] = r
	}
	return reqs, cpu, nil
}
